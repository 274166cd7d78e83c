package repro.core

import repro.linalg.Mat
import repro.nn.{Adam, Net}
import java.lang.Double.isFinite
import java.util.Random
import repro.Rng.shuffle

/** Configuration of one USP training run (Algorithm 1, step 2).
  *
  * Defaults follow §5.1.4/§5.2: k'=10 neighbors, dropout 0.1, Adam, and a
  * minibatch of a few percent of the dataset. `hidden=0` selects the
  * logistic-regression architecture (a single linear layer), used for the
  * tree-comparison experiments (§5.4.2).
  */
final case class UspConfig(
    m: Int,
    kPrime: Int = 10,
    eta: Double = 7.0,
    epochs: Int = 40,
    batchSize: Int = 512,
    lr: Double = 1e-3,
    hidden: Int = 128,
    dropout: Double = 0.1,
    seed: Long = 42,
    /** true = forward each batch's neighbors through the current model to
      * build the Equation-9 targets (the paper's exact formulation);
      * false = amortise with full-dataset assignments refreshed per epoch.
      */
    exactTargets: Boolean = true,
)

/** Result of a training run: the model, final hard assignments of the
  * dataset, and the per-epoch loss trace (for convergence tests).
  */
final case class UspModel(net: Net, assignments: Array[Int], lossTrace: Array[Double], cfg: UspConfig)

/** Trains one model with the unsupervised loss — partitioning and
  * learning-to-search in a single step (the paper's core claim).
  *
  * Training runs on the driver over the collected vector array, mirroring
  * the paper's single-GPU loop; the k'-NN matrix comes in precomputed (a
  * Spark job, see [[KnnMatrix]]). Neighbor-bin targets come from a forward
  * pass over each batch's neighbors (`exactTargets`, the default) or are
  * refreshed from full-dataset hard assignments once per epoch — an
  * amortisation that keeps the same fixed-point (targets equal the model's
  * own assignments) at a fraction of the flops.
  */
object UspTrainer {

  def defaultNet(d: Int, cfg: UspConfig): Net =
    if (cfg.hidden <= 0) Net.logistic(d, cfg.m, cfg.seed)
    else Net.mlp(d, cfg.hidden, cfg.m, cfg.seed, cfg.dropout)

  def train(data: Array[Array[Double]], knn: Array[Array[Int]], cfg: UspConfig,
            weights: Array[Double] = null, netIn: Net = null): UspModel = {
    val n = data.length
    val d = data(0).length
    val w = if (weights == null) Array.fill(n)(1.0) else weights
    require(w.length == n)
    val net = if (netIn == null) defaultNet(d, cfg) else netIn
    val opt = new Adam(net.params, cfg.lr)
    val rng = new Random(cfg.seed ^ 0x5eed)
    val x = Mat.fromRows(data.toIndexedSeq)

    val idx = Array.tabulate(n)(identity)
    val trace = new Array[Double](cfg.epochs)
    var assignments = inferAssignments(net, x)

    var epoch = 0
    while (epoch < cfg.epochs) {
      shuffle(idx, rng)
      var lossSum = 0.0
      var steps = 0
      var start = 0
      while (start < n) {
        val end = math.min(n, start + cfg.batchSize)
        val batchIdx = java.util.Arrays.copyOfRange(idx, start, end)
        val xb = x.selectRows(batchIdx)
        val targets =
          if (cfg.exactTargets) {
            // Equation 8-9 verbatim: run the batch's neighbors through the
            // model (inference mode, no grad) and histogram their hard bins.
            val nbIdx = batchIdx.flatMap(knn(_))
            val nbBins = net.predictProbs(x.selectRows(nbIdx)).argmaxRows
            val t = Mat.zeros(batchIdx.length, cfg.m)
            var r = 0; var o = 0
            while (r < batchIdx.length) {
              val kk = knn(batchIdx(r)).length
              val inc = 1.0 / kk
              var s = 0
              while (s < kk) { t(r, nbBins(o)) += inc; o += 1; s += 1 }
              r += 1
            }
            t
          } else UspLoss.neighborBinTargets(batchIdx, knn, assignments, cfg.m)
        val logits = net.forward(xb, training = true)
        val probs = Net.softmaxRows(logits)
        val bw = batchIdx.map(w)
        val (loss, dz) = UspLoss.lossAndGrad(probs, targets, bw, cfg.eta)
        net.zeroGrad()
        net.backward(dz)
        opt.step()
        lossSum += loss
        steps += 1
        start = end
      }
      trace(epoch) = lossSum / steps
      // A NaN/Inf input or a diverged step poisons the weights, after which
      // every point lands in one bin. The loss alone does not show it: ReLU
      // maps the NaNs of a poisoned BatchNorm to 0, so the weights are checked
      // too.
      val weightsFinite = net.params.forall(_.v.a.forall(isFinite))
      if (!isFinite(trace(epoch)) || !weightsFinite)
        throw new IllegalStateException(
          s"USP training diverged in epoch ${epoch + 1} of ${cfg.epochs}: " +
          s"mean loss ${trace(epoch)}, weights finite: $weightsFinite")
      assignments = inferAssignments(net, x)
      epoch += 1
    }
    UspModel(net, assignments, trace, cfg)
  }

  /** Hard bin of every row of `x` under the current model (inference mode),
    * computed in chunks to bound peak memory.
    */
  def inferAssignments(net: Net, x: Mat, chunk: Int = 4096): Array[Int] = {
    val out = new Array[Int](x.rows)
    var start = 0
    while (start < x.rows) {
      val end = math.min(x.rows, start + chunk)
      val sub = x.selectRows(Array.range(start, end))
      val am = net.predictProbs(sub).argmaxRows
      System.arraycopy(am, 0, out, start, am.length)
      start = end
    }
    out
  }
}
