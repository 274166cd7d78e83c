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
  */
object Sweep {

  final case class Point(probe: Int, avgCand: Double, accuracy: Double)

  def run(index: CandidateIndex, n: Int, queries: Array[Array[Double]],
          gt: Array[Array[Int]], probes: Seq[Int]): Seq[Point] = {
    val mark = new Array[Boolean](n)
    probes.map { probe =>
      var candSum = 0L
      var hits = 0L
      var total = 0L
      var qi = 0
      while (qi < queries.length) {
        val cand = index.candidates(queries(qi), probe)
        var i = 0
        while (i < cand.length) { mark(cand(i)) = true; i += 1 }
        val g = gt(qi)
        var j = 0
        while (j < g.length) { if (mark(g(j))) hits += 1; j += 1 }
        total += g.length
        candSum += cand.length
        i = 0
        while (i < cand.length) { mark(cand(i)) = false; i += 1 }
        qi += 1
      }
      Point(probe, candSum.toDouble / queries.length, hits.toDouble / total)
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
