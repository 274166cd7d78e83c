package repro.core

import org.apache.spark.sql.SparkSession
import repro.linalg.Mat
import repro.nn.Net

/** A space partitioning of R^d into `numBins` bins: the common contract for
  * the paper's method and every baseline (K-means, Neural LSH, LSH, trees).
  *
  * A partitioner supplies `binScores`, higher meaning more likely to hold
  * the point's neighbours; it writes no field, so threads may share it. The
  * online multiprobe (§4.3 — "instead of searching in just one bin, we use
  * the probability distribution output by the model to search in the m'
  * most probable bins") probes bins in descending score order.
  */
trait SpacePartitioner extends Serializable {
  def numBins: Int
  def binScores(q: Array[Double]): Array[Double]

  /** The bin a dataset point is indexed under: the first maximal score. */
  def assign(v: Array[Double]): Int = new Mat(1, numBins, binScores(v)).argmaxRows(0)

  /** The bins of many dataset points: `rows.map(assign)`, which a
    * partitioner may compute in batches.
    */
  def assignAll(rows: Array[Array[Double]]): Array[Int] = rows.map(assign)

  /** The scores of every row of `rows`, one row each: row i is
    * `binScores(rows.row(i))`, which a partitioner may compute in a batch.
    */
  def binScores(rows: Mat): Mat = {
    val out = Mat.zeros(rows.rows, numBins)
    var i = 0
    while (i < rows.rows) {
      System.arraycopy(binScores(rows.row(i)), 0, out.a, i * numBins, numBins)
      i += 1
    }
    out
  }

  final def probeOrder(q: Array[Double]): Array[Int] = SpacePartitioner.rank(binScores(q))
}

object SpacePartitioner {
  /** Bin ids by descending score; a stable sort, so ties keep bin order. */
  def rank(scores: Array[Double]): Array[Int] =
    Array.tabulate(scores.length)(identity).sortBy(b => -scores(b))

  /** `p.binScores` of a block of vectors in one batch; no vectors, no rows. */
  private[core] def scoreBlock(p: SpacePartitioner, vs: Array[Array[Double]]): Mat =
    if (vs.isEmpty) Mat.zeros(0, p.numBins) else p.binScores(Mat.fromRows(vs.toIndexedSeq))
}

/** Anything that can produce a candidate set for a query at probe depth m'.
  * The accuracy/|C| sweeps (all figures/tables) are computed against this.
  */
trait CandidateIndex {
  /** Dataset point ids likely near `q`, probing the `mProbe` best bins. */
  def candidates(q: Array[Double], mProbe: Int): Array[Int]

  /** For each probe depth in `probes`, summed over the queries: |C|, and
    * the ids of each query's ground truth `gt(qi)` that are in C; `n` is
    * the number of dataset points. An index may count these without
    * building C; this default builds it with `candidates`.
    */
  def probeCounts(n: Int, queries: Array[Array[Double]], gt: Array[Array[Int]],
                  probes: Seq[Int]): Seq[CandidateIndex.ProbeCounts] = {
    val mark = new Array[Boolean](n)
    probes.map { probe =>
      var candSum = 0L
      var hits = 0L
      var qi = 0
      while (qi < queries.length) {
        val cand = candidates(queries(qi), probe)
        var i = 0
        while (i < cand.length) { mark(cand(i)) = true; i += 1 }
        val g = gt(qi)
        var j = 0
        while (j < g.length) { if (mark(g(j))) hits += 1; j += 1 }
        candSum += cand.length
        i = 0
        while (i < cand.length) { mark(cand(i)) = false; i += 1 }
        qi += 1
      }
      CandidateIndex.ProbeCounts(candSum, hits)
    }
  }
}

object CandidateIndex {
  /** |C| and ground-truth hits at one probe depth, summed over queries. */
  final case class ProbeCounts(cand: Long, hits: Long)
}

/** A trained partitioner plus its bin→points lookup table (Algorithm 1,
  * step 3 / Algorithm 2). The lookup table is exactly the paper's: point
  * indices grouped by assigned bin.
  */
final class PartitionIndex(val partitioner: SpacePartitioner,
                           val assignments: Array[Int]) extends CandidateIndex {
  require(assignments.forall(b => b >= 0 && b < partitioner.numBins))

  /** bin → ids of the dataset points assigned to it. */
  val lookup: Array[Array[Int]] = {
    val buf = Array.fill(partitioner.numBins)(new scala.collection.mutable.ArrayBuilder.ofInt)
    var i = 0
    while (i < assignments.length) { buf(assignments(i)) += i; i += 1 }
    buf.map(_.result())
  }

  def binSizes: Array[Int] = lookup.map(_.length)

  override def candidates(q: Array[Double], mProbe: Int): Array[Int] =
    gather(partitioner.probeOrder(q), mProbe)

  /** Ids in the first `mProbe` bins of a probe order. */
  def gather(order: Array[Int], mProbe: Int): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < math.min(mProbe, order.length)) {
      out ++= lookup(order(i))
      i += 1
    }
    out.result()
  }

  /** One batch of scores and one rank per query; see the companion's
    * `probeCounts`.
    */
  override def probeCounts(n: Int, queries: Array[Array[Double]], gt: Array[Array[Int]],
                           probes: Seq[Int]): Seq[CandidateIndex.ProbeCounts] =
    PartitionIndex.probeCounts(Seq(this), queries, gt, probes)(_ => _ => 0)

  /** Exact k-NN within the candidate set (Algorithm 2, step 3). */
  def search(data: Array[Array[Double]], q: Array[Double], k: Int, mProbe: Int): Array[Int] = {
    val cand = candidates(q, mProbe)
    cand.map(i => (KnnMatrix.sqDist(data(i), q), i)).sortBy(_._1).take(k).map(_._2)
  }
}

object PartitionIndex {
  /** Index a dataset with a partitioner (runs `assignAll` on Spark, one
    * task per row range, when a session is given, else on the driver).
    */
  def build(partitioner: SpacePartitioner, data: Array[Array[Double]],
            spark: SparkSession = null): PartitionIndex = {
    val assignments =
      if (spark == null) partitioner.assignAll(data)
      else SparkRows.map(spark, data.length, (partitioner, data)) { case ((p, rows), lo, hi) =>
        p.assignAll(rows.slice(lo, hi))
      }
    new PartitionIndex(partitioner, assignments)
  }

  /** The sweep counts of indexes with the same bin count over the same
    * points, without building a candidate set. Each index scores the
    * queries in one batch and ranks each query once. Probing the first d
    * bins of a rank, d = `probe` clamped to [0, numBins] as `gather` reads
    * it, gives a |C| that is the prefix sum of their sizes and the hits
    * that are the ground-truth ids whose bin is among them. At each probe
    * depth a query's counts come from index `pick(its score rows)(probe)`.
    */
  private[core] def probeCounts(indexes: Seq[PartitionIndex], queries: Array[Array[Double]],
                                gt: Array[Array[Int]], probes: Seq[Int])
                               (pick: Seq[Array[Double]] => Int => Int): Seq[CandidateIndex.ProbeCounts] = {
    val m = indexes.head.partitioner.numBins
    val ps = probes.toArray
    val depths = ps.map(p => math.min(math.max(p, 0), m))
    val cand = new Array[Long](ps.length)
    val hits = new Array[Long](ps.length)
    val scores = indexes.map(idx => SpacePartitioner.scoreBlock(idx.partitioner, queries))
    // per index, for the current query: |C| and hits after its first d bins
    val candAt = Array.ofDim[Long](indexes.length, m + 1)
    val hitsAt = Array.ofDim[Long](indexes.length, m + 1)
    val rankOf = new Array[Int](m)
    for (qi <- queries.indices) {
      val rows = scores.map(_.row(qi))
      for ((idx, j) <- indexes.zipWithIndex) {
        val order = SpacePartitioner.rank(rows(j))
        val (c, h) = (candAt(j), hitsAt(j))
        java.util.Arrays.fill(h, 0L)
        for (r <- 0 until m) { rankOf(order(r)) = r; c(r + 1) = c(r) + idx.lookup(order(r)).length }
        for (g <- gt(qi)) h(rankOf(idx.assignments(g)) + 1) += 1
        for (r <- 0 until m) h(r + 1) += h(r)
      }
      val member = pick(rows)
      for (k <- ps.indices) {
        val j = member(ps(k))
        cand(k) += candAt(j)(depths(k))
        hits(k) += hitsAt(j)(depths(k))
      }
    }
    ps.indices.map(k => CandidateIndex.ProbeCounts(cand(k), hits(k)))
  }
}

/** USP model as a [[SpacePartitioner]]: a bin's score is the trained
  * model's softmax probability for it. The net's inference is taken once,
  * at first use, so the net must not train after that.
  */
final class ModelPartitioner(net: Net, val numBins: Int) extends SpacePartitioner {
  @transient private lazy val probs = net.inference()

  override def binScores(q: Array[Double]): Array[Double] = probs(new Mat(1, q.length, q)).a

  /** One batched inference; it is row-local, so row i equals `binScores(q_i)`. */
  override def binScores(rows: Mat): Mat = probs(rows)

  /** One batched inference over all rows. Inference is row-local, so the
    * bins equal `assign`'s.
    */
  override def assignAll(rows: Array[Array[Double]]): Array[Int] =
    SpacePartitioner.scoreBlock(this, rows).argmaxRows
}
