package repro.core

import repro.linalg.Mat
import repro.nn.{Net, PhaseMs}
import java.util.Random

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
)

/** Result of a training run: the model, final hard assignments of the
  * dataset, the per-epoch loss trace (for convergence tests) and the time
  * each epoch spent in each phase of its steps.
  */
final case class UspModel(net: Net, assignments: Array[Int], lossTrace: Array[Double], cfg: UspConfig,
                          phases: Array[PhaseMs])

/** Trains one model with the unsupervised loss — partitioning and
  * learning-to-search in a single step (the paper's core claim).
  *
  * Training runs on the driver over the collected vector array, mirroring
  * the paper's single-GPU loop ([[repro.nn.Net.fit]]); the k'-NN matrix comes
  * in precomputed (a Spark job, see [[KnnMatrix]]). Each step's
  * neighbor-bin targets (Equations 8–9) are the current model's hard bins of
  * the batch's k' neighbors, each distinct neighbor forwarded once.
  */
object UspTrainer {

  def defaultNet(d: Int, cfg: UspConfig): Net =
    if (cfg.hidden <= 0) Net.logistic(d, cfg.m, cfg.seed)
    else Net.mlp(d, cfg.hidden, cfg.m, cfg.seed, cfg.dropout)

  def train(data: Array[Array[Double]], knn: Array[Array[Int]], cfg: UspConfig,
            weights: Array[Double] = null, netIn: Net = null): UspModel = {
    val n = data.length
    val w = if (weights == null) Array.fill(n)(1.0) else weights
    require(w.length == n)
    val net = if (netIn == null) defaultNet(data(0).length, cfg) else netIn
    val x = Mat.fromRows(data.toIndexedSeq)
    // Current bin of each neighbor of the batch; other entries are stale and
    // never read. Inference is row-local, so a neighbor's bin does not depend
    // on which other rows share its forward.
    val bins = new Array[Int](n)
    val seen = new Array[Int](n) // the last step that listed each point as a neighbour
    var step = 0
    val fit = net.fit(x, cfg.epochs, cfg.batchSize, cfg.lr, new Random(cfg.seed ^ 0x5eed)) { batchIds =>
      step += 1
      // the batch's distinct neighbours, in order of first appearance
      val nbIds = batchIds.flatMap(knn(_)).filter { id => val first = seen(id) != step; seen(id) = step; first }
      val nbBins = net.predictProbs(x.selectRows(nbIds)).argmaxRows
      var i = 0
      while (i < nbIds.length) { bins(nbIds(i)) = nbBins(i); i += 1 }
      val targets = UspLoss.neighborBinTargets(batchIds, knn, bins, cfg.m)
      probs => UspLoss.lossAndGrad(probs, targets, batchIds.map(w), cfg.eta)
    }
    UspModel(net, new ModelPartitioner(net, cfg.m).assignAll(data), fit.lossTrace, cfg, fit.phases)
  }
}
