package repro.core

/** AdaBoost-style ensembling (Algorithms 3 and 4).
  *
  * Models are trained sequentially. After model j, every point's weight is
  * multiplied by the number of its k' neighbors that model j separated from
  * it (Equation 14's weight update), so later models concentrate on points
  * that ALL earlier partitions placed badly. Weights are renormalised to
  * mean 1 before each run — a scale-invariance of the loss the paper leaves
  * implicit (only relative weights matter to the argmin; renormalising keeps
  * Adam's step size meaningful).
  *
  * At query time each model reports its top softmax probability as a
  * confidence; the candidate set of the most confident model is used
  * (Algorithm 4).
  */
object Ensemble {

  final case class Trained(models: Seq[UspModel], indexes: Seq[PartitionIndex])

  /** Minimum per-point weight (after mean-1 renormalising) fed to later
    * models. The paper's raw multiplicative update zeroes the weight of every
    * point whose neighbors were all kept together; at small m that is most
    * of the dataset, which would leave later models with no signal about the
    * bulk of the space. The floor keeps them anchored to the global
    * structure while still over-weighting the hard points (DESIGN.md §6).
    */
  private val WeightFloor = 0.1

  def train(data: Array[Array[Double]], knn: Array[Array[Int]], cfg: UspConfig,
            e: Int): Trained = {
    require(e >= 1)
    val n = data.length
    var w = Array.fill(n)(1.0)
    val models = Seq.newBuilder[UspModel]
    val indexes = Seq.newBuilder[PartitionIndex]
    var j = 0
    while (j < e) {
      val model = UspTrainer.train(data, knn, cfg.copy(seed = cfg.seed + 1000L * j), weights = w)
      models += model
      indexes += new PartitionIndex(new ModelPartitioner(model.net, cfg.m), model.assignments)
      if (j < e - 1) {
        w = nextWeights(w, knn, model.assignments).map(math.max(_, WeightFloor))
      }
      j += 1
    }
    Trained(models.result(), indexes.result())
  }

  /** w_i^{j+1} = w_i^j * |{p in N_k'(i) : R(p) != R(i)}|, renormalised. */
  def nextWeights(w: Array[Double], knn: Array[Array[Int]],
                  assignments: Array[Int]): Array[Double] = {
    val n = w.length
    val out = new Array[Double](n)
    var i = 0
    while (i < n) {
      val nbs = knn(i)
      var cut = 0
      var t = 0
      while (t < nbs.length) { if (assignments(nbs(t)) != assignments(i)) cut += 1; t += 1 }
      out(i) = w(i) * cut
      i += 1
    }
    val mean = out.sum / n
    if (mean <= 0) Array.fill(n)(1.0) // every point perfectly placed: reset
    else out.map(_ / mean)
  }
}

/** Query-time view of a trained ensemble (Algorithm 4): probe the bins of
  * the single most-confident member.
  *
  * Confidences are calibrated per model: each member's top softmax
  * probability is divided by that member's mean top probability over (a
  * sample of) the dataset. Raw softmax maxima are not comparable between
  * independently trained networks (a member trained on extreme boosting
  * weights can be systematically overconfident); calibration restores the
  * "which model actually knows this region" semantics Algorithm 4 intends.
  */
final class EnsembleIndex(trained: Ensemble.Trained,
                          calibrationData: Array[Array[Double]]) extends CandidateIndex {
  private val parts = trained.indexes
  private val m = parts.head.partitioner.numBins

  /** conf(model, q, m'): the total probability the model puts on the m'
    * bins it would probe, from its ascending-sorted score row. At m'=1 this
    * is Algorithm 4 verbatim (the model's highest probability); deeper into
    * the sweep it is strictly more informative.
    */
  private def rawConf(sortedScores: Array[Double], mProbe: Int): Double =
    sortedScores.takeRight(mProbe).sum

  // per-(model, probe-depth) calibration over a data sample
  private[core] val calib: Array[Array[Double]] = {
    val sample = calibrationData.take(500)
    Array.tabulate(parts.length) { j =>
      val scores = SpacePartitioner.scoreBlock(parts(j).partitioner, sample)
      val sorted = Array.tabulate(sample.length)(i => scores.row(i).sorted)
      Array.tabulate(m + 1)(p => sorted.map(rawConf(_, p)).sum / sample.length)
    }
  }

  /** The member with the highest calibrated confidence at depth `mProbe`
    * (clamped to [1, m]), given each member's ascending-sorted score row;
    * the first such member on ties.
    */
  private def mostConfident(sorted: Int => Array[Double], mProbe: Int): Int = {
    val p = math.min(math.max(mProbe, 1), m)
    var best = 0
    var bestConf = Double.NegativeInfinity
    var j = 0
    while (j < parts.length) {
      val conf = rawConf(sorted(j), p) / calib(j)(p)
      if (conf > bestConf) { bestConf = conf; best = j }
      j += 1
    }
    best
  }

  override def candidates(q: Array[Double], mProbe: Int): Array[Int] = {
    val scores = parts.map(_.partitioner.binScores(q))
    val best = mostConfident(scores(_).sorted, mProbe)
    parts(best).gather(SpacePartitioner.rank(scores(best)), mProbe)
  }

  /** Each member scores the queries in one batch and ranks and sorts each
    * query's score row once; at each depth the counts are the most
    * confident member's, at `gather`'s depth.
    */
  override def probeCounts(n: Int, queries: Array[Array[Double]], gt: Array[Array[Int]],
                           probes: Seq[Int]): Seq[CandidateIndex.ProbeCounts] =
    PartitionIndex.probeCounts(parts, queries, gt, probes) { rows =>
      val sorted = rows.map(_.sorted)
      mostConfident(sorted, _)
    }
}
