package repro

import java.util.Random

/** Synthetic vector datasets for the ANN-search reproduction.
  *
  * The paper evaluates on ANN-benchmark SIFT (1M x 128d) and MNIST
  * (60k x 784d) plus scikit-learn 2-D toy sets. The container is offline,
  * so we generate synthetic equivalents (see DESIGN.md §3): what the
  * partitioning methods are sensitive to is multi-modal local structure,
  * which these mixtures reproduce at laptop scale. Every generator returns
  * driver-side rows and is deterministic in its seed.
  */
object SynthData {

  /** Gaussian mixture with anisotropic per-cluster scales and an optional
    * uniform background-noise fraction.
    */
  def gaussianMixture(n: Int, d: Int, clusters: Int, seed: Long,
                      scale: Double = 10.0, noiseFrac: Double = 0.0): Array[Array[Double]] = {
    val rng = new Random(seed)
    val centers = Array.fill(clusters, d)((rng.nextDouble() * 2 - 1) * scale)
    val sigmas  = Array.fill(clusters, d)(0.3 + rng.nextDouble() * 1.2)
    Array.fill(n) {
      if (noiseFrac > 0 && rng.nextDouble() < noiseFrac)
        Array.fill(d)((rng.nextDouble() * 2 - 1) * scale * 1.2)
      else {
        val c = rng.nextInt(clusters)
        Array.tabulate(d)(j => centers(c)(j) + rng.nextGaussian() * sigmas(c)(j))
      }
    }
  }

  /** Mixture of low-rank ("manifold-like") clusters: each cluster spreads
    * along `rank` random directions with per-direction scales drawn in
    * [0.5, 1.5]·basisScale, plus small isotropic noise. This is the regime
    * of real descriptor/image data (SIFT, MNIST): elongated, curved mass
    * that convex k-means cells cut across — exactly the structure the
    * paper's learned partitions exploit.
    */
  def lowRankMixture(n: Int, d: Int, clusters: Int, rank: Int, centerScale: Double,
                     basisScale: Double, noise: Double, noiseFrac: Double,
                     seed: Long): Array[Array[Double]] = {
    val rng = new Random(seed)
    val centers = Array.fill(clusters, d)((rng.nextDouble() * 2 - 1) * centerScale)
    val bases = Array.fill(clusters, rank, d) {
      rng.nextGaussian() / math.sqrt(d.toDouble)
    }
    val basisScales = Array.fill(clusters, rank)((0.5 + rng.nextDouble()) * basisScale)
    Array.fill(n) {
      if (noiseFrac > 0 && rng.nextDouble() < noiseFrac)
        Array.fill(d)((rng.nextDouble() * 2 - 1) * centerScale * 1.2)
      else {
        val c = rng.nextInt(clusters)
        val z = Array.tabulate(rank)(r => rng.nextGaussian() * basisScales(c)(r))
        Array.tabulate(d) { j =>
          var s = centers(c)(j)
          var r = 0
          while (r < rank) { s += z(r) * bases(c)(r)(j); r += 1 }
          s + rng.nextGaussian() * noise
        }
      }
    }
  }

  /** Mixture of curved 1-D filaments: each cluster is a smooth curve
    * `c + t·L·v1 + sin(2πt)·W·v2 + cos(2πt)·W·v3` swept by t ~ U(0,1), plus
    * isotropic noise. Long curved support is the regime where convex
    * (K-means) cells must chop a single manifold into many pieces while
    * kNN-graph-driven partitions can follow it — the structural property of
    * real descriptor data (SIFT) that the paper's method exploits.
    */
  def filamentMixture(n: Int, d: Int, filaments: Int, length: Double,
                      width: Double, noise: Double, noiseFrac: Double,
                      seed: Long): Array[Array[Double]] = {
    val rng = new Random(seed)
    val centers = Array.fill(filaments, d)((rng.nextDouble() * 2 - 1) * 10.0)
    def unit(): Array[Double] = {
      val v = Array.fill(d)(rng.nextGaussian())
      val nrm = math.sqrt(v.map(x => x * x).sum)
      v.map(_ / nrm)
    }
    val dir1 = Array.fill(filaments)(unit())
    val dir2 = Array.fill(filaments)(unit())
    val dir3 = Array.fill(filaments)(unit())
    Array.fill(n) {
      if (noiseFrac > 0 && rng.nextDouble() < noiseFrac)
        Array.fill(d)((rng.nextDouble() * 2 - 1) * 12.0)
      else {
        val c = rng.nextInt(filaments)
        val t = rng.nextDouble() - 0.5
        val s = math.sin(2 * math.Pi * t) * width
        val w = math.cos(2 * math.Pi * t) * width
        Array.tabulate(d) { j =>
          centers(c)(j) + t * length * dir1(c)(j) + s * dir2(c)(j) + w * dir3(c)(j) +
            rng.nextGaussian() * noise
        }
      }
    }
  }

  /** SIFT-like stand-in: curved low-dimensional filaments at moderate
    * ambient dimension (see [[filamentMixture]] and DESIGN.md §3).
    */
  def siftLite(n: Int, seed: Long = 7, d: Int = 32): Array[Array[Double]] =
    filamentMixture(n, d, filaments = 48, length = 40.0, width = 6.0,
      noise = 0.3, noiseFrac = 0.05, seed = seed)

  /** MNIST-like stand-in: 10 low-rank clusters in higher ambient dimension. */
  def mnistLite(n: Int, seed: Long = 11, d: Int = 96, rank: Int = 8): Array[Array[Double]] =
    lowRankMixture(n, d, clusters = 10, rank = rank, centerScale = 8.0,
      basisScale = 10.0, noise = 0.1, noiseFrac = 0.0, seed = seed)

  /** Two interleaved half-circles (scikit-learn `make_moons` equivalent).
    * Returns (points, labels).
    */
  def moons(n: Int, noise: Double = 0.06, seed: Long = 13): (Array[Array[Double]], Array[Int]) = {
    val rng = new Random(seed)
    val pts = new Array[Array[Double]](n)
    val lab = new Array[Int](n)
    var i = 0
    while (i < n) {
      val t = rng.nextDouble() * math.Pi
      if (i % 2 == 0) {
        pts(i) = Array(math.cos(t) + rng.nextGaussian() * noise,
                       math.sin(t) + rng.nextGaussian() * noise)
        lab(i) = 0
      } else {
        pts(i) = Array(1.0 - math.cos(t) + rng.nextGaussian() * noise,
                       0.5 - math.sin(t) + rng.nextGaussian() * noise)
        lab(i) = 1
      }
      i += 1
    }
    (pts, lab)
  }

  /** Two concentric rings (scikit-learn `make_circles` equivalent). */
  def circles(n: Int, noise: Double = 0.04, factor: Double = 0.5,
              seed: Long = 17): (Array[Array[Double]], Array[Int]) = {
    val rng = new Random(seed)
    val pts = new Array[Array[Double]](n)
    val lab = new Array[Int](n)
    var i = 0
    while (i < n) {
      val t = rng.nextDouble() * 2 * math.Pi
      val r = if (i % 2 == 0) 1.0 else factor
      pts(i) = Array(r * math.cos(t) + rng.nextGaussian() * noise,
                     r * math.sin(t) + rng.nextGaussian() * noise)
      lab(i) = i % 2
      i += 1
    }
    (pts, lab)
  }

  /** Four separated blobs in 2-D (stand-in for the paper's 4-cluster
    * `make_classification` sample).
    */
  def blobs4(n: Int, seed: Long = 19): (Array[Array[Double]], Array[Int]) = {
    val rng = new Random(seed)
    val centers = Array(Array(-4.0, -4.0), Array(4.0, -4.0), Array(-4.0, 4.0), Array(4.0, 4.0))
    val pts = new Array[Array[Double]](n)
    val lab = new Array[Int](n)
    var i = 0
    while (i < n) {
      val c = rng.nextInt(4)
      pts(i) = Array(centers(c)(0) + rng.nextGaussian() * 1.1,
                     centers(c)(1) + rng.nextGaussian() * 1.1)
      lab(i) = c
      i += 1
    }
    (pts, lab)
  }
}
