package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Mat
import java.util.Random

/** Finite-difference gradient checks: the single most important test of a
  * hand-written backprop. Every layer type and the composed MLP must match
  * central differences on a sample of parameters.
  */
class GradCheckSpec extends AnyFunSuite {

  private def ceLossAndGrad(net: Net, x: Mat, y: Array[Int]): Double = {
    val probs = Net.softmaxRows(net.forward(x))
    var loss = 0.0
    val dz = Mat.zeros(x.rows, probs.cols)
    for (i <- 0 until x.rows) {
      loss -= math.log(probs(i, y(i)) + 1e-12)
      for (j <- 0 until probs.cols)
        dz(i, j) = probs(i, j) - (if (j == y(i)) 1.0 else 0.0)
    }
    net.zeroGrad()
    net.backward(dz)
    loss
  }

  private def ceLossOnly(net: Net, x: Mat, y: Array[Int]): Double = {
    val probs = Net.softmaxRows(net.forward(x))
    var loss = 0.0
    for (i <- 0 until x.rows) loss -= math.log(probs(i, y(i)) + 1e-12)
    loss
  }

  /** Check d(loss)/d(param) for a sample of parameter entries. */
  private def checkNet(net: Net, x: Mat, y: Array[Int], tol: Double = 1e-4): Unit = {
    ceLossAndGrad(net, x, y)
    val analytic = net.params.map(_.g.copy())
    val rng = new Random(99)
    val eps = 1e-5
    for ((p, pi) <- net.params.zipWithIndex) {
      val samples = math.min(8, p.v.a.length)
      for (_ <- 0 until samples) {
        val k = rng.nextInt(p.v.a.length)
        val orig = p.v.a(k)
        p.v.a(k) = orig + eps
        val lp = ceLossOnly(net, x, y)
        p.v.a(k) = orig - eps
        val lm = ceLossOnly(net, x, y)
        p.v.a(k) = orig
        val num = (lp - lm) / (2 * eps)
        val ana = analytic(pi).a(k)
        assert(math.abs(num - ana) < tol * math.max(1.0, math.abs(num)),
          s"param $pi entry $k: numeric=$num analytic=$ana")
      }
    }
  }

  private def randX(rows: Int, cols: Int, seed: Long): Mat = {
    val rng = new Random(seed)
    Mat(rows, cols)((_, _) => rng.nextGaussian())
  }

  test("gradient check: logistic regression") {
    val net = Net.logistic(5, 3, seed = 1)
    checkNet(net, randX(12, 5, 2), Array.tabulate(12)(_ % 3))
  }

  test("gradient check: Linear + ReLU + Linear (no BN)") {
    val rng = new Random(3)
    val net = new Net(Seq(new Linear(4, 8, rng), new ReLU, new Linear(8, 3, rng)))
    checkNet(net, randX(10, 4, 4), Array.tabulate(10)(_ % 3))
  }

  test("gradient check: BatchNorm alone inside a linear stack") {
    val rng = new Random(5)
    val net = new Net(Seq(new Linear(3, 6, rng), new BatchNorm(6), new Linear(6, 2, rng)))
    checkNet(net, randX(16, 3, 6), Array.tabulate(16)(_ % 2))
  }

  test("gradient check: full MLP architecture (BN + ReLU, no dropout)") {
    val net = Net.mlp(6, 10, 4, seed = 7, dropout = 0.0)
    checkNet(net, randX(20, 6, 8), Array.tabulate(20)(_ % 4))
  }

  test("gradient check: deeper stack of two hidden blocks") {
    val rng = new Random(9)
    val net = new Net(Seq(
      new Linear(4, 8, rng), new BatchNorm(8), new ReLU,
      new Linear(8, 8, rng), new BatchNorm(8), new ReLU,
      new Linear(8, 3, rng)))
    checkNet(net, randX(14, 4, 10), Array.tabulate(14)(_ % 3))
  }

  test("backward propagates input gradients of the right shape") {
    val net = Net.mlp(5, 7, 3, seed = 11, dropout = 0.0)
    val x = randX(9, 5, 12)
    ceLossAndGrad(net, x, Array.tabulate(9)(_ % 3))
    val probs = Net.softmaxRows(net.forward(x))
    // arbitrary upstream gradient; Net.backward leaves dL/dx out, so the
    // layers run one by one
    val dx = net.layers.foldRight(probs)((l, g) => l.backward(g))
    assert(dx.rows == 9 && dx.cols == 5)
  }

  test("input gradient of logistic net matches finite differences") {
    val net = Net.logistic(3, 2, seed = 13)
    val x = randX(1, 3, 14)
    val y = Array(1)
    val probs = Net.softmaxRows(net.forward(x))
    val dz = Mat.fromRows(Seq(Array(probs(0, 0) - 0.0, probs(0, 1) - 1.0)))
    net.zeroGrad()
    val dx = net.layers.foldRight(dz)((l, g) => l.backward(g))
    val eps = 1e-6
    for (j <- 0 until 3) {
      val xp = x.copy(); xp(0, j) += eps
      val xm = x.copy(); xm(0, j) -= eps
      val lp = ceLossOnly(net, xp, y)
      val lm = ceLossOnly(net, xm, y)
      val num = (lp - lm) / (2 * eps)
      assert(math.abs(num - dx(0, j)) < 1e-5)
    }
  }
}
