package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Mat
import repro.nn.Net
import java.util.Random

class UspLossSpec extends AnyFunSuite {

  private def randLogits(rows: Int, cols: Int, seed: Long): Mat = {
    val rng = new Random(seed)
    Mat(rows, cols)((_, _) => rng.nextGaussian())
  }

  test("quality cost is zero when the model matches one-hot neighbor targets") {
    // logits so peaked the softmax is ~one-hot and equal to the target
    val logits = Mat.fromRows(Seq(Array(50.0, 0.0), Array(0.0, 50.0)))
    val probs = Net.softmaxRows(logits)
    val targets = Mat.fromRows(Seq(Array(1.0, 0.0), Array(0.0, 1.0)))
    val (loss, _) = UspLoss.lossAndGrad(probs, targets, Array(1.0, 1.0), eta = 0.0)
    assert(loss < 1e-6)
  }

  test("quality cost equals the analytic cross-entropy for a known case") {
    val probs = Mat.fromRows(Seq(Array(0.7, 0.3)))
    val targets = Mat.fromRows(Seq(Array(0.6, 0.4)))
    val (loss, _) = UspLoss.lossAndGrad(probs, targets, Array(1.0), eta = 0.0)
    val expected = -(0.6 * math.log(0.7) + 0.4 * math.log(0.3))
    assert(math.abs(loss - expected) < 1e-9)
  }

  test("quality gradient is (p - B)/batch for unit weights") {
    val probs = Mat.fromRows(Seq(Array(0.7, 0.3), Array(0.2, 0.8)))
    val targets = Mat.fromRows(Seq(Array(1.0, 0.0), Array(0.5, 0.5)))
    val (_, dz) = UspLoss.lossAndGrad(probs, targets, Array(1.0, 1.0), eta = 0.0)
    assert(math.abs(dz(0, 0) - (0.7 - 1.0) / 2) < 1e-12)
    assert(math.abs(dz(1, 1) - (0.8 - 0.5) / 2) < 1e-12)
  }

  test("ensembling weights scale both the loss and its gradient (Equation 14)") {
    val probs = Mat.fromRows(Seq(Array(0.7, 0.3)))
    val targets = Mat.fromRows(Seq(Array(1.0, 0.0)))
    val (l1, g1) = UspLoss.lossAndGrad(probs, targets, Array(1.0), eta = 0.0)
    val (l3, g3) = UspLoss.lossAndGrad(probs, targets, Array(3.0), eta = 0.0)
    assert(math.abs(l3 - 3 * l1) < 1e-12)
    assert(math.abs(g3(0, 0) - 3 * g1(0, 0)) < 1e-12)
  }

  test("balance loss is -1 for a perfectly balanced one-hot batch") {
    // 4 points, 2 bins, 2 per bin, fully confident
    val probs = Mat.fromRows(Seq(
      Array(1.0, 0.0), Array(1.0, 0.0), Array(0.0, 1.0), Array(0.0, 1.0)))
    val (lb, _) = UspLoss.balanceLossGrad(probs)
    assert(math.abs(lb - (-1.0)) < 1e-12)
  }

  test("balance loss is worse (greater) for a collapsed partition") {
    val collapsed = Mat.fromRows(Seq(
      Array(1.0, 0.0), Array(1.0, 0.0), Array(1.0, 0.0), Array(1.0, 0.0)))
    val balanced = Mat.fromRows(Seq(
      Array(1.0, 0.0), Array(1.0, 0.0), Array(0.0, 1.0), Array(0.0, 1.0)))
    val (lc, _) = UspLoss.balanceLossGrad(collapsed)
    val (lbal, _) = UspLoss.balanceLossGrad(balanced)
    assert(lc > lbal)
    assert(math.abs(lc - (-0.5)) < 1e-12) // window: 2 ones in col0, 2 zeros in col1
  }

  test("balance loss of a uniform distribution sits between collapse and balance") {
    val uniform = Mat.fromRows(Seq.fill(4)(Array(0.5, 0.5)))
    val (lu, _) = UspLoss.balanceLossGrad(uniform)
    assert(math.abs(lu - (-0.5)) < 1e-12) // m*nw*(1/m)/batch = nw/batch
  }

  test("balance gradient marks exactly the top-n/m window entries") {
    val probs = Mat.fromRows(Seq(
      Array(0.9, 0.1), Array(0.8, 0.2), Array(0.3, 0.7), Array(0.4, 0.6)))
    val (_, dP) = UspLoss.balanceLossGrad(probs) // window size 2 per column
    // col0 top-2: rows 0,1; col1 top-2: rows 2,3
    assert(dP(0, 0) == -0.25 && dP(1, 0) == -0.25 && dP(2, 0) == 0.0 && dP(3, 0) == 0.0)
    assert(dP(2, 1) == -0.25 && dP(3, 1) == -0.25 && dP(0, 1) == 0.0 && dP(1, 1) == 0.0)
  }

  test("full loss gradient matches finite differences through the softmax") {
    val rng = new Random(42)
    val batch = 12; val m = 4
    val logits = randLogits(batch, m, 1)
    val targets = {
      val t = Mat.zeros(batch, m)
      for (i <- 0 until batch) {
        val a = rng.nextInt(m); val b = rng.nextInt(m)
        t(i, a) += 0.5; t(i, b) += 0.5
      }
      t
    }
    val weights = Array.fill(batch)(0.5 + rng.nextDouble())
    val eta = 3.0

    def lossOf(z: Mat): Double = {
      val p = Net.softmaxRows(z)
      UspLoss.lossAndGrad(p, targets, weights, eta)._1
    }

    val p0 = Net.softmaxRows(logits)
    val (_, dz) = UspLoss.lossAndGrad(p0, targets, weights, eta)
    val eps = 1e-6
    var checked = 0
    for (_ <- 0 until 30) {
      val i = rng.nextInt(batch); val j = rng.nextInt(m)
      val zp = logits.copy(); zp(i, j) += eps
      val zm = logits.copy(); zm(i, j) -= eps
      val num = (lossOf(zp) - lossOf(zm)) / (2 * eps)
      // skip entries where the top-n/m window membership flips under eps
      // (the balance term is piecewise linear; at ties the subgradient differs)
      if (math.abs(num - dz(i, j)) < 1e-4) checked += 1
    }
    assert(checked >= 27, s"only $checked/30 sampled entries matched finite differences")
  }

  test("neighborBinTargets computes the neighbor-bin histogram (Equation 9)") {
    val knn = Array(Array(1, 2, 3), Array(0, 2, 3))
    val assignments = Array(0, 1, 1, 0)
    val t = UspLoss.neighborBinTargets(Array(0, 1), knn, assignments, m = 2)
    // point 0: neighbors 1,2,3 → bins 1,1,0 → (1/3, 2/3)
    assert(math.abs(t(0, 0) - 1.0 / 3) < 1e-12 && math.abs(t(0, 1) - 2.0 / 3) < 1e-12)
    // point 1: neighbors 0,2,3 → bins 0,1,0 → (2/3, 1/3)
    assert(math.abs(t(1, 0) - 2.0 / 3) < 1e-12 && math.abs(t(1, 1) - 1.0 / 3) < 1e-12)
  }

  test("neighborBinTargets rows always sum to 1") {
    val rng = new Random(7)
    val n = 50
    val knn = Array.fill(n)(Array.fill(5)(rng.nextInt(n)))
    val asg = Array.fill(n)(rng.nextInt(8))
    val t = UspLoss.neighborBinTargets(Array.tabulate(n)(identity), knn, asg, 8)
    t.rowSum.foreach(s => assert(math.abs(s - 1.0) < 1e-9))
  }

  test("increasing eta increases the weight of the balance term in the loss") {
    val probs = Net.softmaxRows(randLogits(8, 4, 2))
    val targets = Mat.fromRows(Seq.fill(8)(Array(0.25, 0.25, 0.25, 0.25)))
    val w = Array.fill(8)(1.0)
    val (l1, _) = UspLoss.lossAndGrad(probs, targets, w, eta = 1.0)
    val (l2, _) = UspLoss.lossAndGrad(probs, targets, w, eta = 2.0)
    val (lb, _) = UspLoss.balanceLossGrad(probs)
    assert(math.abs((l2 - l1) - lb) < 1e-9)
  }

  test("loss rejects shape mismatches") {
    val p = Mat.zeros(2, 3); val t = Mat.zeros(3, 3)
    intercept[IllegalArgumentException](UspLoss.lossAndGrad(p, t, Array(1.0, 1.0), 1.0))
  }

  /** The balance window as a stable sort of each column finds it: the
    * reference the bounded-heap selection must equal bit for bit.
    */
  private def sortedBalance(probs: Mat): (Double, Mat) = {
    val batch = probs.rows
    val m = probs.cols
    val nw = math.max(1, math.ceil(batch.toDouble / m).toInt)
    val dP = Mat.zeros(batch, m)
    var winSum = 0.0
    for (j <- 0 until m) {
      val top = Array.tabulate(batch)(i => (probs(i, j), i)).sortBy(-_._1).take(nw)
      top.foreach { case (v, i) => winSum += v; dP(i, j) = -1.0 / batch }
    }
    (-winSum / batch, dP)
  }

  private def assertSameBits(probs: Mat, clue: String): Unit = {
    val (l, dP) = UspLoss.balanceLossGrad(probs)
    val (lr, dPr) = sortedBalance(probs)
    assert(java.lang.Double.doubleToLongBits(l) == java.lang.Double.doubleToLongBits(lr), clue)
    assert(dP.a.toSeq.map(java.lang.Double.doubleToLongBits) ==
           dPr.a.toSeq.map(java.lang.Double.doubleToLongBits), clue)
  }

  test("balance selection equals the stable sort's window, ties included, bit for bit") {
    val rng = new Random(71)
    // softmax batches, with a last batch that is not a multiple of m
    for ((batch, m) <- Seq((800, 16), (37, 5), (128, 4), (88, 4), (65, 64)))
      assertSameBits(Net.softmaxRows(randLogits(batch, m, batch * 31L + m)), s"softmax $batch x $m")
    // uniform rows: every entry of a column ties
    assertSameBits(Mat(50, 8)((_, _) => 0.125), "uniform")
    // a few repeated values, so ties cross the window's edge
    for (s <- 0 until 5) {
      val levels = Array(0.0, 0.1, 0.25, 0.25, 0.5)
      assertSameBits(Mat(61, 6)((_, _) => levels(rng.nextInt(levels.length))), s"repeated $s")
    }
    // batch < m: a window of one per column
    assertSameBits(Net.softmaxRows(randLogits(3, 8, 72)), "batch < m")
    assertSameBits(Mat(2, 7)((_, _) => 0.5), "batch < m, tied")
  }
}
