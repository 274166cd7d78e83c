package repro.eval

import repro.core.CandidateIndex

/** Accuracy-vs-candidate-size sweeps (the measurement behind Figures 5–7 and
  * Table 4): probe successively more of the most probable bins and record
  * the k-NN accuracy (Equation 1) and mean |C| at each probe depth.
  *
  * Accuracy counts ground-truth neighbors present in the candidate set: any
  * true k-NN inside C is by definition among the k closest points of C, so
  * membership equals what the final brute-force scan (Algorithm 2, step 3)
  * would return.
  *
  * The counts come from the index's `probeCounts`: for a partition index,
  * one batch of scores and one rank per query, after which |C| at depth m'
  * is a prefix sum of bin sizes and the hits are the ground-truth ids
  * whose bin ranks below m'.
  */
object Sweep {

  final case class Point(probe: Int, avgCand: Double, accuracy: Double)

  def run(index: CandidateIndex, n: Int, queries: Array[Array[Double]],
          gt: Array[Array[Int]], probes: Seq[Int]): Seq[Point] = {
    require(gt.length == queries.length,
      s"${queries.length} queries but ground truth for ${gt.length}")
    val total = gt.map(_.length.toLong).sum
    index.probeCounts(n, queries, gt, probes).zip(probes).map { case (c, probe) =>
      Point(probe, c.cand.toDouble / queries.length, c.hits.toDouble / total)
    }
  }

  /** Linear interpolation of |C| at a target accuracy along a sweep — used
    * for Table 4's "candidate set size at 85% 10-NN accuracy". None if the
    * sweep never reaches the target.
    */
  def candidateSizeAtAccuracy(points: Seq[Point], target: Double): Option[Double] = {
    val sorted = points.sortBy(_.avgCand)
    sorted.find(_.accuracy >= target) match {
      case None => None
      case Some(hi) =>
        val below = sorted.takeWhile(_.accuracy < target).lastOption
        below match {
          case Some(lo) if hi.accuracy > lo.accuracy =>
            val t = (target - lo.accuracy) / (hi.accuracy - lo.accuracy)
            Some(lo.avgCand + t * (hi.avgCand - lo.avgCand))
          case _ => Some(hi.avgCand)
        }
    }
  }
}
