package repro.baselines

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

  /** Lloyd's with k-means++ seeding, on the driver: the IVF baseline of
    * the tables, tree nodes, the PQ codebooks' start and the clustering
    * table. The IVF index itself is built on Spark by [[repro.core.PartitionIndex.build]].
    */
  def fitLocal(data: Array[Array[Double]], k: Int, iters: Int = 25,
               seed: Long = 5): KMeansPartitioner = {
    val rng = new Random(seed)
    val centroids = seedPlusPlus(data, k, rng)
    new KMeansPartitioner(lloyd(data, centroids, iters, rng)(cs => data.map(nearest(cs, _))))
  }

  /** `iters` Lloyd's iterations from `centroids`, which are updated in place
    * and returned. One iteration: `assignAll(centroids)` gives every row's
    * centroid; each centroid becomes the mean of its rows, summed in data
    * order; an empty centroid is reseeded with a row drawn from `rng`, in
    * centroid order.
    */
  private[repro] def lloyd(data: Array[Array[Double]], centroids: Array[Array[Double]],
                           iters: Int, rng: Random)
                          (assignAll: Array[Array[Double]] => Array[Int]): Array[Array[Double]] = {
    val k = centroids.length
    val d = data(0).length
    var it = 0
    while (it < iters) {
      val assigned = assignAll(centroids)
      val sums = Array.fill(k, d)(0.0)
      val counts = new Array[Int](k)
      var i = 0
      while (i < data.length) {
        val c = assigned(i)
        counts(c) += 1
        var j = 0
        while (j < d) { sums(c)(j) += data(i)(j); j += 1 }
        i += 1
      }
      var c = 0
      while (c < k) {
        if (counts(c) > 0) {
          var j = 0
          while (j < d) { centroids(c)(j) = sums(c)(j) / counts(c); j += 1 }
        } else centroids(c) = data(rng.nextInt(data.length)).clone()
        c += 1
      }
      it += 1
    }
    centroids
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
