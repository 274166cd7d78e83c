package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Mat
import java.util.Random

class LayerSpec extends AnyFunSuite {

  private def randMat(r: Int, c: Int, seed: Long): Mat = {
    val rng = new Random(seed)
    Mat(r, c)((_, _) => rng.nextGaussian())
  }

  test("Linear forward computes xW + b") {
    val lin = new Linear(2, 3, new Random(1))
    lin.w.v(0, 0) = 1; lin.w.v(0, 1) = 2; lin.w.v(0, 2) = 3
    lin.w.v(1, 0) = 4; lin.w.v(1, 1) = 5; lin.w.v(1, 2) = 6
    lin.b.v(0, 0) = 0.5; lin.b.v(0, 1) = -0.5; lin.b.v(0, 2) = 0.0
    val y = lin.forward(Mat.fromRows(Seq(Array(1.0, 1.0))))
    assert(y.row(0).toSeq == Seq(5.5, 6.5, 9.0))
  }

  test("Linear Glorot init is bounded by the Glorot limit") {
    val lin = new Linear(100, 50, new Random(2))
    val limit = math.sqrt(6.0 / 150)
    assert(lin.w.v.a.forall(w => math.abs(w) <= limit))
    assert(lin.b.v.a.forall(_ == 0.0))
  }

  test("Linear init depends on the seed deterministically") {
    val a = new Linear(4, 4, new Random(7))
    val b = new Linear(4, 4, new Random(7))
    val c = new Linear(4, 4, new Random(8))
    assert(a.w.v.a.toSeq == b.w.v.a.toSeq)
    assert(a.w.v.a.toSeq != c.w.v.a.toSeq)
  }

  test("ReLU zeroes negatives, passes positives, and masks gradients") {
    val relu = new ReLU
    val y = relu.forward(Mat.fromRows(Seq(Array(-1.0, 2.0, 0.0))))
    assert(y.row(0).toSeq == Seq(0.0, 2.0, 0.0))
    val g = relu.backward(Mat.fromRows(Seq(Array(5.0, 5.0, 5.0))))
    assert(g.row(0).toSeq == Seq(0.0, 5.0, 0.0))
  }

  test("Dropout is identity at inference") {
    val drop = new Dropout(0.5, new Random(3))
    val x = randMat(4, 4, 4)
    val y = drop.inference()(x.rowArrays, 4, 4, Array.fill(4)(new Array[Double](4)))
    assert(y.toSeq.flatten == x.a.toSeq)
  }

  test("Dropout zeroes roughly p of entries and rescales the rest") {
    val p = 0.3
    val drop = new Dropout(p, new Random(5))
    val x = Mat(200, 10)((_, _) => 1.0)
    val y = drop.forward(x)
    val zeros = y.a.count(_ == 0.0)
    val frac = zeros.toDouble / y.a.length
    assert(math.abs(frac - p) < 0.05, s"dropped fraction $frac far from $p")
    // surviving entries are scaled by 1/(1-p)
    assert(y.a.filter(_ != 0.0).forall(v => math.abs(v - 1.0 / (1 - p)) < 1e-12))
  }

  test("Dropout gradient uses the same mask as the forward pass") {
    val drop = new Dropout(0.5, new Random(6))
    val x = Mat(50, 4)((_, _) => 1.0)
    val y = drop.forward(x)
    val g = drop.backward(Mat(50, 4)((_, _) => 1.0))
    // gradient must be zero exactly where the output was zero
    assert(y.a.zip(g.a).forall { case (yv, gv) => (yv == 0.0) == (gv == 0.0) })
  }

  test("BatchNorm normalizes batch columns to mean 0 / var 1 in training") {
    val bn = new BatchNorm(3)
    val x = randMat(500, 3, 7).map(_ * 5 + 2)
    val y = bn.forward(x)
    val mean = y.colSum.map(_ / 500)
    assert(mean.forall(m => math.abs(m) < 1e-8))
    for (j <- 0 until 3) {
      var v = 0.0
      for (i <- 0 until 500) v += y(i, j) * y(i, j)
      assert(math.abs(v / 500 - 1.0) < 1e-3)
    }
  }

  test("BatchNorm running stats converge toward the data stats") {
    val bn = new BatchNorm(2, mom = 0.5)
    val x = randMat(1000, 2, 8).map(_ * 3 + 1)
    for (_ <- 0 until 20) bn.forward(x)
    assert(math.abs(bn.runMean(0) - 1.0) < 0.3)
    assert(math.abs(bn.runVar(0) - 9.0) < 1.5)
  }

  test("BatchNorm inference uses running stats, not batch stats") {
    val bn = new BatchNorm(1, mom = 0.0) // running stats = last batch stats
    val train = Mat.fromRows((1 to 100).map(i => Array(i.toDouble)))
    bn.forward(train)
    // a single out-of-distribution point at inference must not be renormalized to 0
    def infer(v: Double): Double = bn.inference()(Array(Array(v)), 1, 1, Array(new Array[Double](1)))(0)(0)
    assert(math.abs(infer(50.5)) < 0.1) // 50.5 equals the training mean → ≈ 0 under running stats
    assert(infer(1000.0) > 10) // far point stays far
  }

  test("BatchNorm gamma/beta shift the normalized output") {
    val bn = new BatchNorm(1)
    bn.gamma.v(0, 0) = 2.0
    bn.beta.v(0, 0) = 1.0
    val x = Mat.fromRows(Seq(Array(-1.0), Array(1.0)))
    val y = bn.forward(x)
    // normalized values are ±1, so outputs are 1 ± 2
    assert(math.abs(y(0, 0) - (-1.0)) < 1e-4)
    assert(math.abs(y(1, 0) - 3.0) < 1e-4)
  }

  test("Param zeroGrad resets gradient buffers") {
    val lin = new Linear(2, 2, new Random(9))
    lin.forward(randMat(3, 2, 10))
    lin.backward(randMat(3, 2, 11))
    assert(lin.w.g.a.exists(_ != 0.0))
    lin.params.foreach(_.zeroGrad())
    assert(lin.w.g.a.forall(_ == 0.0) && lin.b.g.a.forall(_ == 0.0))
  }

  test("Net.mlp layer structure and paramCount") {
    val net = Net.mlp(10, 16, 4, seed = 1)
    // Linear(10,16) + BN(16) + ReLU + Dropout + Linear(16,4)
    assert(net.layers.length == 5)
    val expected = (10 * 16 + 16) + 2 * 16 + (16 * 4 + 4)
    assert(net.paramCount == expected)
  }

  test("Net.logistic is a single linear layer") {
    val net = Net.logistic(5, 3, seed = 1)
    assert(net.layers.length == 1)
    assert(net.paramCount == 5 * 3 + 3)
  }

  test("softmaxRows rows sum to one and order preserved") {
    val z = Mat.fromRows(Seq(Array(1.0, 2.0, 3.0), Array(-5.0, 0.0, 5.0)))
    val p = Net.softmaxRows(z)
    for (i <- 0 until 2) {
      assert(math.abs(p.rowSum(i) - 1.0) < 1e-12)
      assert(p(i, 2) > p(i, 1) && p(i, 1) > p(i, 0))
    }
  }

  test("softmaxRows is shift-invariant and numerically stable at large logits") {
    val p1 = Net.softmaxRows(Mat.fromRows(Seq(Array(1000.0, 1001.0))))
    val p2 = Net.softmaxRows(Mat.fromRows(Seq(Array(0.0, 1.0))))
    assert(math.abs(p1(0, 0) - p2(0, 0)) < 1e-12)
    assert(!p1.a.exists(_.isNaN))
  }

  test("softmaxBackward matches the finite-difference Jacobian") {
    val rng = new Random(12)
    val z = Mat.fromRows(Seq(Array.fill(4)(rng.nextGaussian())))
    val g = Mat.fromRows(Seq(Array.fill(4)(rng.nextGaussian())))
    val p = Net.softmaxRows(z)
    val dz = Net.softmaxBackward(p, g)
    val eps = 1e-6
    for (j <- 0 until 4) {
      val zp = z.copy(); zp(0, j) += eps
      val zm = z.copy(); zm(0, j) -= eps
      def loss(zz: Mat): Double = {
        val pp = Net.softmaxRows(zz)
        (0 until 4).map(t => g(0, t) * pp(0, t)).sum
      }
      val num = (loss(zp) - loss(zm)) / (2 * eps)
      assert(math.abs(num - dz(0, j)) < 1e-6, s"j=$j num=$num ana=${dz(0, j)}")
    }
  }

  test("Adam minimizes a simple quadratic") {
    val p = Param(1, 2)
    p.v(0, 0) = 5.0; p.v(0, 1) = -3.0
    val opt = new Adam(Seq(p), lr = 0.1)
    for (_ <- 0 until 300) {
      p.zeroGrad()
      p.g(0, 0) = 2 * p.v(0, 0)
      p.g(0, 1) = 2 * p.v(0, 1)
      opt.step()
    }
    assert(math.abs(p.v(0, 0)) < 1e-2 && math.abs(p.v(0, 1)) < 1e-2)
  }

  test("Adam trains logistic regression to separate two blobs") {
    val rng = new Random(13)
    val n = 200
    val xs = Array.tabulate(n)(i =>
      if (i % 2 == 0) Array(rng.nextGaussian() + 3, rng.nextGaussian() + 3)
      else Array(rng.nextGaussian() - 3, rng.nextGaussian() - 3))
    val ys = Array.tabulate(n)(i => i % 2)
    val net = Net.logistic(2, 2, seed = 3)
    val opt = new Adam(net.params, lr = 0.05)
    val x = Mat.fromRows(xs.toIndexedSeq)
    for (_ <- 0 until 100) {
      val probs = Net.softmaxRows(net.forward(x))
      val dz = Mat.zeros(n, 2)
      for (i <- 0 until n; j <- 0 until 2)
        dz(i, j) = (probs(i, j) - (if (j == ys(i)) 1.0 else 0.0)) / n
      net.zeroGrad(); net.backward(dz); opt.step()
    }
    val pred = net.predictProbs(x).argmaxRows
    val acc = pred.zip(ys).count { case (a, b) => a == b }.toDouble / n
    assert(acc > 0.98, s"accuracy $acc")
  }

  test("Net.fit rejects a non-positive batch size") {
    val net = Net.mlp(5, 8, 3, seed = 17)
    for (batchSize <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](
        net.fit(randMat(6, 5, 18), epochs = 1, batchSize, lr = 1e-3, new Random(1)) { b => _ =>
          (0.0, Mat.zeros(b.length, 3))
        })
      assert(e.getMessage.contains("batchSize"), e.getMessage)
    }
  }

  test("Net.fit rejects an empty dataset") {
    val net = Net.mlp(5, 8, 3, seed = 17)
    val e = intercept[IllegalArgumentException](
      net.fit(Mat.zeros(0, 5), epochs = 1, batchSize = 4, lr = 1e-3, new Random(1)) { b => _ =>
        (0.0, Mat.zeros(b.length, 3))
      })
    assert(e.getMessage.contains("empty"), e.getMessage)
  }

  test("inference between a training forward and its backward leaves the gradients unchanged") {
    // Net.mlp holds every layer kind that caches: Linear, BatchNorm, ReLU, Dropout
    def grads(interleave: Boolean): Seq[Seq[Double]] = {
      val net = Net.mlp(5, 8, 3, seed = 17)
      val y = net.forward(randMat(6, 5, 18))
      if (interleave) net.predictProbs(randMat(4, 5, 19))
      net.zeroGrad()
      net.backward(Mat(y.rows, y.cols)((i, j) => (i + 1) * 0.1 - j * 0.2))
      net.params.map(_.g.a.toSeq)
    }
    assert(grads(interleave = true) == grads(interleave = false))
  }

  /** Inference one layer at a time over whole matrices, with each entry
    * computed as the training forward orders it: the reference for the
    * block path of `predictProbs`.
    */
  private def layerByLayer(net: Net, x: Mat): Mat =
    Net.softmaxRows(net.layers.foldLeft(x) { (h, layer) =>
      layer match {
        case lin: Linear => Mat(h.rows, lin.out) { (i, j) =>
          var s = 0.0
          for (k <- 0 until lin.in) if (h(i, k) != 0.0) s += h(i, k) * lin.w.v(k, j)
          s + lin.b.v(0, j)
        }
        case bn: BatchNorm => Mat(h.rows, bn.dim) { (i, j) =>
          bn.gamma.v(0, j) * (h(i, j) - bn.runMean(j)) * (1.0 / math.sqrt(bn.runVar(j) + 1e-5)) + bn.beta.v(0, j)
        }
        case _: ReLU => h.map(v => if (v > 0) v else 0.0)
        case _: Dropout => h
        case other => fail(s"no reference for ${other.getClass.getSimpleName}")
      }
    })

  test("block inference equals the layer-by-layer reference, bit for bit") {
    val nets = Seq("mlp" -> Net.mlp(6, 20, 5, seed = 21), "mlp2" -> Net.mlp2(6, 20, 5, seed = 22),
                   "logistic" -> Net.logistic(6, 5, seed = 23))
    for ((name, net) <- nets) {
      // a few training forwards and steps move BatchNorm's running statistics
      // and the weights away from their initial values
      val opt = new Adam(net.params, lr = 0.05)
      for (s <- 0 until 3) {
        val y = net.forward(randMat(40, 6, 30 + s).map(_ * 2 + 1))
        net.zeroGrad(); net.backward(y.map(_ * 0.1)); opt.step()
      }
      for (rows <- Seq(1, 63, 64, 65, 1000)) {
        val x = randMat(rows, 6, rows).map(v => if (v < -0.8) 0.0 else v)
        val got = net.predictProbs(x)
        assert(got.rows == rows && got.cols == 5)
        assert(got.a.toSeq.map(java.lang.Double.doubleToLongBits) ==
               layerByLayer(net, x).a.toSeq.map(java.lang.Double.doubleToLongBits), s"$name, $rows rows")
      }
    }
  }

  test("predictProbs of no rows is empty") {
    assert(Net.mlp(4, 8, 3, seed = 1).predictProbs(Mat.zeros(0, 4)).rows == 0)
  }
}
