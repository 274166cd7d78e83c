package repro.baselines

import org.apache.spark.sql.SparkSession
import java.util.Random
import repro.core.{KnnMatrix, SpacePartitioner}

/** Lloyd's K-means — the ubiquitous partitioning baseline (IVF / quantizer
  * cells). A bin's score is minus the squared centroid distance, so
  * multiprobe follows the standard inverted-file probe order (nearest
  * centroid first) and a point is assigned to its nearest centroid.
  */
final class KMeansPartitioner(val centroids: Array[Array[Double]]) extends SpacePartitioner {
  override val numBins: Int = centroids.length

  override def binScores(q: Array[Double]): Array[Double] =
    centroids.map(c => -KnnMatrix.sqDist(c, q))
}

object KMeansPartitioner {

  /** Driver-side Lloyd's with k-means++ seeding (used for small subsets:
    * tree nodes, PQ codebooks, clustering table).
    */
  def fitLocal(data: Array[Array[Double]], k: Int, iters: Int = 25,
               seed: Long = 5): KMeansPartitioner = {
    val rng = new Random(seed)
    val centroids = seedPlusPlus(data, k, rng)
    val d = data(0).length
    var it = 0
    while (it < iters) {
      val sums = Array.fill(k, d)(0.0)
      val counts = new Array[Int](k)
      data.foreach { v =>
        val c = nearest(centroids, v)
        counts(c) += 1
        var j = 0
        while (j < d) { sums(c)(j) += v(j); j += 1 }
      }
      var c = 0
      while (c < k) {
        if (counts(c) > 0) {
          var j = 0
          while (j < d) { centroids(c)(j) = sums(c)(j) / counts(c); j += 1 }
        } else centroids(c) = data(rng.nextInt(data.length)).clone() // re-seed empty
        c += 1
      }
      it += 1
    }
    new KMeansPartitioner(centroids)
  }

  /** Spark Lloyd's: per-partition partial sums aggregated on the driver —
    * the classic DataFrame-era clustering dataflow for the index build.
    */
  def fitSpark(spark: SparkSession, data: Array[Array[Double]], k: Int,
               iters: Int = 25, seed: Long = 5): KMeansPartitioner = {
    val rng = new Random(seed)
    var centroids = seedPlusPlus(data, k, rng)
    val d = data(0).length
    val bc = spark.sparkContext.broadcast(data)
    val rdd = spark.sparkContext
      .range(0, data.length, numSlices = spark.sparkContext.defaultParallelism)
      .cache()
    var it = 0
    while (it < iters) {
      val cents = spark.sparkContext.broadcast(centroids)
      val agg = rdd
        .mapPartitions { ids =>
          val cs = cents.value
          val sums = Array.fill(cs.length, d)(0.0)
          val counts = new Array[Long](cs.length)
          ids.foreach { i =>
            val v = bc.value(i.toInt)
            val c = nearest(cs, v)
            counts(c) += 1
            var j = 0
            while (j < d) { sums(c)(j) += v(j); j += 1 }
          }
          Iterator.single((sums, counts))
        }
        .reduce { (a, b) =>
          var c = 0
          while (c < k) {
            var j = 0
            while (j < d) { a._1(c)(j) += b._1(c)(j); j += 1 }
            a._2(c) += b._2(c)
            c += 1
          }
          a
        }
      centroids = Array.tabulate(k) { c =>
        if (agg._2(c) > 0) Array.tabulate(d)(j => agg._1(c)(j) / agg._2(c))
        else data(rng.nextInt(data.length)).clone()
      }
      cents.destroy()
      it += 1
    }
    rdd.unpersist()
    bc.destroy()
    new KMeansPartitioner(centroids)
  }

  private[baselines] def nearest(centroids: Array[Array[Double]], v: Array[Double]): Int = {
    var best = 0
    var bd = Double.MaxValue
    var c = 0
    while (c < centroids.length) {
      val d = KnnMatrix.sqDist(centroids(c), v)
      if (d < bd) { bd = d; best = c }
      c += 1
    }
    best
  }

  /** k-means++ seeding (D² sampling). */
  private def seedPlusPlus(data: Array[Array[Double]], k: Int, rng: Random): Array[Array[Double]] = {
    val n = data.length
    val centroids = new Array[Array[Double]](k)
    centroids(0) = data(rng.nextInt(n)).clone()
    val d2 = Array.fill(n)(Double.MaxValue)
    var c = 1
    while (c < k) {
      var i = 0
      var total = 0.0
      while (i < n) {
        val nd = KnnMatrix.sqDist(data(i), centroids(c - 1))
        if (nd < d2(i)) d2(i) = nd
        total += d2(i)
        i += 1
      }
      val r = rng.nextDouble() * total
      var pick = 0
      i = 0
      var acc = 0.0
      while (i < n && acc + d2(i) < r) { acc += d2(i); i += 1 }
      pick = math.min(i, n - 1)
      centroids(c) = data(pick).clone()
      c += 1
    }
    centroids
  }
}
