package repro.scann

import repro.core.KnnMatrix
import repro.baselines.KMeansPartitioner
import java.util.Random

/** Product quantizer with ScaNN-style anisotropic codeword assignment.
  *
  * ScaNN [16] (Guo et al. 2020) is a C++ library; its quantization insight
  * is to penalise the component of the residual *parallel* to the datapoint
  * more than the orthogonal component (parallel error perturbs inner-product
  * /distance rankings most). We reproduce that as a product quantizer whose
  * assignment step minimises  hPar·‖r∥‖² + hOrth·‖r⊥‖²  (codebook update
  * stays the subspace mean — the standard alternating approximation). With
  * hPar = hOrth = 1 this degrades to classic PQ, which doubles as the
  * FAISS-IVFPQ-style comparator.
  */
final class ProductQuantizer(val codebooks: Array[Array[Array[Double]]],
                             val d: Int) extends Serializable {
  val numSub: Int = codebooks.length
  val k: Int = codebooks(0).length
  private val subDim = d / numSub

  def encode(v: Array[Double]): Array[Byte] = {
    val out = new Array[Byte](numSub)
    var s = 0
    while (s < numSub) {
      val off = s * subDim
      var best = 0
      var bd = Double.MaxValue
      var c = 0
      while (c < k) {
        var dist = 0.0
        var j = 0
        while (j < subDim) { val e = v(off + j) - codebooks(s)(c)(j); dist += e * e; j += 1 }
        if (dist < bd) { bd = dist; best = c }
        c += 1
      }
      out(s) = best.toByte
      s += 1
    }
    out
  }

  /** Per-query lookup table: table(s)(c) = ‖q_s − codebook_s,c‖². */
  def adcTable(q: Array[Double]): Array[Array[Double]] = {
    val table = Array.ofDim[Double](numSub, k)
    var s = 0
    while (s < numSub) {
      val off = s * subDim
      var c = 0
      while (c < k) {
        var dist = 0.0
        var j = 0
        while (j < subDim) { val e = q(off + j) - codebooks(s)(c)(j); dist += e * e; j += 1 }
        table(s)(c) = dist
        c += 1
      }
      s += 1
    }
    table
  }

  def approxDist(code: Array[Byte], table: Array[Array[Double]]): Double = {
    var dist = 0.0
    var s = 0
    while (s < numSub) { dist += table(s)(code(s) & 0xff); s += 1 }
    dist
  }
}

object ProductQuantizer {

  /** Train codebooks; `hPar > hOrth` gives the anisotropic (ScaNN) variant. */
  def fit(data: Array[Array[Double]], numSub: Int, k: Int,
          hPar: Double = 4.0, hOrth: Double = 1.0, iters: Int = 15,
          seed: Long = 17): ProductQuantizer = {
    val d = data(0).length
    require(d % numSub == 0, s"d=$d must be divisible by numSub=$numSub")
    require(k >= 1 && k <= 256, s"k=$k codewords must be in [1, 256]: codes are stored as bytes")
    val subDim = d / numSub
    val rng = new Random(seed)
    val codebooks = Array.tabulate(numSub) { s =>
      val off = s * subDim
      val subs = data.map(v => java.util.Arrays.copyOfRange(v, off, off + subDim))
      // plain k-means init, then anisotropic Lloyd refinement
      val init = KMeansPartitioner.fitLocal(subs, k, iters = 5, seed = seed + s).centroids
      KMeansPartitioner.lloyd(subs, init, iters, rng)(cs => subs.map(anisotropicNearest(_, cs, hPar, hOrth)))
    }
    new ProductQuantizer(codebooks, d)
  }

  /** argmin_c hPar·‖r∥‖² + hOrth·‖r⊥‖² with r = x − c, r∥ along x̂. */
  def anisotropicNearest(x: Array[Double], cents: Array[Array[Double]],
                         hPar: Double, hOrth: Double): Int = {
    val x2 = x.map(v => v * v).sum
    var best = 0
    var bd = Double.MaxValue
    var c = 0
    while (c < cents.length) {
      var r2 = 0.0
      var rDotX = 0.0
      var j = 0
      while (j < x.length) {
        val r = x(j) - cents(c)(j)
        r2 += r * r
        rDotX += r * x(j)
        j += 1
      }
      val par = if (x2 > 1e-12) rDotX * rDotX / x2 else 0.0
      val score = hPar * par + hOrth * (r2 - par)
      if (score < bd) { bd = score; best = c }
      c += 1
    }
    best
  }
}

/** ScaNN-lite search: ADC scan over a candidate id set, then exact rerank of
  * the best `rerank` candidates. By default it scans the whole dataset
  * (vanilla ScaNN); pairing it with a partitioner's candidate set gives the
  * K-means+ScaNN / USP+ScaNN pipelines of §5.4.3.
  */
final class ScannIndex(data: Array[Array[Double]], pq: ProductQuantizer) {
  val codes: Array[Array[Byte]] = data.map(pq.encode)
  /** Every dataset id: the candidate set of the full scan. */
  val allIds: Array[Int] = Array.tabulate(data.length)(identity)

  def search(q: Array[Double], k: Int, rerank: Int,
             candidateIds: Array[Int] = allIds): Array[Int] = {
    val table = pq.adcTable(q)
    val scored = candidateIds.map(i => (pq.approxDist(codes(i), table), i))
    val top = scored.sortBy(_._1).take(math.max(rerank, k))
    top.map { case (_, i) => (KnnMatrix.sqDist(data(i), q), i) }
      .sortBy(_._1).take(k).map(_._2)
  }
}
