package repro.cluster

import repro.core.KnnMatrix
import repro.baselines.{GraphPartitioner, KMeansPartitioner}
import java.util.Random

/** Spectral clustering (Ng–Jordan–Weiss) — Table 5 comparator.
  *
  * k-NN affinity graph → symmetric normalised Laplacian L_sym → the k
  * smallest eigenvectors via power iteration with deflation on the shifted
  * operator (2I − L_sym), rows normalised, then k-means in the embedding.
  * Dense n×n operators are fine at Table 5 scale (n ≈ 1000).
  */
object Spectral {

  def fit(data: Array[Array[Double]], k: Int, knnK: Int = 10, seed: Long = 3): Array[Int] = {
    val n = data.length
    // mutual-ish kNN affinity (symmetrized, unit weights)
    val knn = KnnMatrix.blockKnn(data, data, knnK, excludeSelf = true)
    val adj = GraphPartitioner.symmetrize(knn)
    val deg = adj.map(_.length.toDouble)
    val invSqrtDeg = deg.map(d => if (d > 0) 1.0 / math.sqrt(d) else 0.0)

    // y = (2I − L_sym) x = x + D^{-1/2} A D^{-1/2} x
    def op(x: Array[Double]): Array[Double] = {
      val out = new Array[Double](n)
      var i = 0
      while (i < n) {
        var s = 0.0
        adj(i).foreach(j => s += invSqrtDeg(j) * x(j))
        out(i) = x(i) + invSqrtDeg(i) * s
        i += 1
      }
      out
    }

    // Subspace (orthogonal) iteration on the k-dimensional top invariant
    // subspace of (2I − L_sym). Sparse graphs from kNN of ring/path-shaped
    // data have a tiny spectral gap, so a generous iteration budget is
    // needed; each iteration is O(n·deg·k) on the adjacency lists.
    val rng = new Random(seed)
    val eigvecs = Array.fill(k)(Array.fill(n)(rng.nextGaussian()))
    // Path/ring-shaped components have Fiedler values of order 1/n², so the
    // iteration budget must grow with n for the slow within-component modes
    // to die out of the top-k subspace.
    val iters = math.max(1500, 15 * n)
    var it = 0
    while (it < iters) {
      var e = 0
      while (e < k) {
        val w = op(eigvecs(e))
        // Gram-Schmidt against the already-updated vectors
        var p = 0
        while (p < e) {
          val u = eigvecs(p)
          var dot = 0.0
          var i = 0
          while (i < n) { dot += w(i) * u(i); i += 1 }
          i = 0
          while (i < n) { w(i) -= dot * u(i); i += 1 }
          p += 1
        }
        val nrm = math.sqrt(w.map(x => x * x).sum)
        if (nrm > 1e-12) { var i = 0; while (i < n) { w(i) /= nrm; i += 1 } }
        eigvecs(e) = w
        e += 1
      }
      it += 1
    }

    // rows of the embedding, normalised to the unit sphere (NJW step)
    val embedding = Array.tabulate(n) { i =>
      val row = Array.tabulate(k)(e2 => eigvecs(e2)(i))
      val nrm = math.sqrt(row.map(x => x * x).sum)
      if (nrm > 1e-12) row.map(_ / nrm) else row
    }
    // k-means with restarts, keeping the lowest within-cluster SSE
    val fits = (0 until 5).map { r =>
      val km = KMeansPartitioner.fitLocal(embedding, k, iters = 50, seed = seed + 17L * r)
      val sse = embedding.map(v => KnnMatrix.sqDist(km.centroids(km.assign(v)), v)).sum
      (sse, km)
    }
    val best = fits.minBy(_._1)._2
    embedding.map(best.assign)
  }
}
