package repro.core

import repro.linalg.Mat
import repro.nn.Net

/** The paper's two-part unsupervised loss (§4.2.2).
  *
  * For a batch of points with softmax outputs P (batch × m):
  *
  *  - '''quality cost''' U(R): per-point cross-entropy between the model's
  *    distribution `p_i` and the empirical bin distribution `B_k'(p_i)` of
  *    its k' nearest neighbors (Equations 9–10). The neighbor bins are the
  *    model's own hard assignments — no external labels — which is what
  *    makes the method unsupervised. `B` is treated as a constant target
  *    (the gradient flows through `p_i` only), so dU/dz_i = w_i (p_i − B_i).
  *  - '''balance cost''' S(R): the negated sum of the top ⌈batch/m⌉ entries
  *    of each bin column of P (Equations 12–13), normalised by the batch
  *    size so the balance term lives in [−1, 0] (−1 = perfectly balanced
  *    one-hot assignment). Its gradient w.r.t. P is −η/batch on selected
  *    entries, mapped back to logits through the softmax Jacobian.
  *
  * Total: L = mean_i w_i · CE(B_i, p_i) + η · S  (Equation 5, with the
  * per-point ensembling weights w of Equation 14; w ≡ 1 for a single model).
  */
object UspLoss {

  /** Value and dL/d(logits) for one batch.
    *
    * @param probs   softmax outputs, batch × m
    * @param targets neighbor-bin distributions B, batch × m (rows sum to 1)
    * @param weights per-point ensembling weights (length batch)
    * @param eta     balance parameter η of Equation 5
    */
  def lossAndGrad(probs: Mat, targets: Mat, weights: Array[Double],
                  eta: Double): (Double, Mat) = {
    val batch = probs.rows
    val m = probs.cols
    require(targets.rows == batch && targets.cols == m)
    require(weights.length == batch)

    // quality: weighted CE, gradient directly w.r.t. logits
    var lq = 0.0
    val dz = Mat.zeros(batch, m)
    var i = 0
    while (i < batch) {
      val off = i * m
      val w = weights(i)
      var j = 0
      while (j < m) {
        val b = targets.a(off + j)
        if (b > 0) lq -= w * b * math.log(probs.a(off + j) + 1e-12)
        dz.a(off + j) = w * (probs.a(off + j) - b) / batch
        j += 1
      }
      i += 1
    }
    lq /= batch

    // balance: top-⌈batch/m⌉ window per column (Equation 12)
    val (lb, dP) = balanceLossGrad(probs)
    val dzBal = Net.softmaxBackward(probs, dP.scale(eta))
    dz.addInPlace(dzBal)

    (lq + eta * lb, dz)
  }

  /** S(R) over a batch of probabilities, with its gradient w.r.t. P.
    * Returned loss is −(window sum)/batch ∈ [−1, 0].
    */
  def balanceLossGrad(probs: Mat): (Double, Mat) = {
    val batch = probs.rows
    val m = probs.cols
    val nw = math.max(1, math.ceil(batch.toDouble / m).toInt)
    val dP = Mat.zeros(batch, m)
    var winSum = 0.0
    var j = 0
    while (j < m) {
      // The nw largest entries of column j, ties to the lower row, summed
      // largest first: the entries and the order of a stable descending
      // sort of the column, found by a bounded heap.
      val heap = new KnnMatrix.Heap(nw)
      var i = 0
      while (i < batch) { heap.offer(-probs(i, j), i); i += 1 }
      val top = heap.sorted()
      var t = 0
      while (t < top.length) {
        winSum += probs(top(t), j)
        dP(top(t), j) = -1.0 / batch
        t += 1
      }
      j += 1
    }
    (-winSum / batch, dP)
  }

  /** Empirical bin distribution of each point's k' neighbors (Equation 9):
    * each neighbor adds 1/k' to its bin, in neighbor order.
    *
    * @param batchIdx    dataset indices of the batch points
    * @param knn         k'-NN matrix (row i = neighbor indices of point i)
    * @param assignments current hard bin of every point; only the entries of
    *                    the batch's neighbors are read
    */
  def neighborBinTargets(batchIdx: Array[Int], knn: Array[Array[Int]],
                         assignments: Array[Int], m: Int): Mat = {
    val out = Mat.zeros(batchIdx.length, m)
    var i = 0
    while (i < batchIdx.length) {
      val nbs = knn(batchIdx(i))
      val inc = 1.0 / nbs.length
      var t = 0
      while (t < nbs.length) { out(i, assignments(nbs(t))) += inc; t += 1 }
      i += 1
    }
    out
  }
}
