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

  final def probeOrder(q: Array[Double]): Array[Int] = SpacePartitioner.rank(binScores(q))
}

object SpacePartitioner {
  /** Bin ids by descending score; a stable sort, so ties keep bin order. */
  def rank(scores: Array[Double]): Array[Int] =
    Array.tabulate(scores.length)(identity).sortBy(b => -scores(b))
}

/** Anything that can produce a candidate set for a query at probe depth m'.
  * The accuracy/|C| sweeps (all figures/tables) are computed against this.
  */
trait CandidateIndex {
  /** Dataset point ids likely near `q`, probing the `mProbe` best bins. */
  def candidates(q: Array[Double], mProbe: Int): Array[Int]
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
}

/** USP model as a [[SpacePartitioner]]: a bin's score is the trained
  * model's softmax probability for it. The net's inference is taken once,
  * at first use, so the net must not train after that.
  */
final class ModelPartitioner(net: Net, val numBins: Int) extends SpacePartitioner {
  @transient private lazy val probs = net.inference()

  override def binScores(q: Array[Double]): Array[Double] = probs(new Mat(1, q.length, q)).a

  /** One batched inference over all rows. Inference is row-local, so the
    * bins equal `assign`'s.
    */
  override def assignAll(rows: Array[Array[Double]]): Array[Int] =
    if (rows.isEmpty) Array.empty else probs(Mat.fromRows(rows.toIndexedSeq)).argmaxRows
}
