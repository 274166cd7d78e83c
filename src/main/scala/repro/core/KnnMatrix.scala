package repro.core

import org.apache.spark.sql.SparkSession

/** Exact k'-NN matrix construction (Algorithm 1, step 1).
  *
  * This is the paper's single preprocessing step: row i of the matrix holds
  * the indices of the k' true nearest neighbors of point i (Figure 2). The
  * same kernel also produces exact query ground truth for the accuracy
  * metric (Equation 1), so every recall number in the benches is measured
  * against an exact oracle.
  *
  * The kernel, [[blockKnn]], scans a block of queries against the base held
  * transposed in tiles of [[TileRows]] rows (FAISS-style query-block ×
  * base-block exact search, without the GEMM). Each pair still sums its d
  * squared differences in coordinate order, exactly as [[sqDist]] does, and
  * each query's heap sees its (distance, id) pairs in ascending id, as in
  * [[topK]]; so the kernel and `topK` return the same rows bit for bit.
  * Every row is ordered by (distance, id). On Spark, `selfKnn`/`queryKnn`
  * broadcast the tiles and the query rows and run the kernel on one range
  * of query rows per task ([[SparkRows]]).
  */
object KnnMatrix {

  /** Base rows per tile; tile(j) holds coordinate j of TileRows rows. */
  private[repro] final val TileRows = 256
  /** Queries scanned against one tile before the next, so it stays in cache. */
  private final val QueryBlock = 64

  @inline def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < a.length) { val d = a(j) - b(j); s += d * d; j += 1 }
    s
  }

  /** Bounded max-heap over (dist, id), ordered by distance then id: the root
    * is the worst kept candidate. It keeps the k smallest pairs, so offering
    * negated values keeps the k largest (the balance window of [[UspLoss]]).
    */
  private[core] final class Heap(k: Int) {
    private val hd = new Array[Double](k)
    private val hi = new Array[Int](k)
    private var size = 0

    @inline private def worse(a: Int, b: Int): Boolean =
      hd(a) > hd(b) || (hd(a) == hd(b) && hi(a) > hi(b))

    private def swap(a: Int, b: Int): Unit = {
      val td = hd(a); hd(a) = hd(b); hd(b) = td
      val ti = hi(a); hi(a) = hi(b); hi(b) = ti
    }

    /** Restores the heap order of hd/hi(0 until end) from the root down. */
    private def siftDown(end: Int): Unit = {
      var c = 0
      var done = false
      while (!done) {
        val l = 2 * c + 1; val r = l + 1
        var m = c
        if (l < end && worse(l, m)) m = l
        if (r < end && worse(r, m)) m = r
        if (m == c) done = true else { swap(m, c); c = m }
      }
    }

    def offer(d: Double, i: Int): Unit =
      if (size < k) {
        var c = size
        hd(c) = d; hi(c) = i; size += 1
        while (c > 0 && worse(c, (c - 1) / 2)) { swap(c, (c - 1) / 2); c = (c - 1) / 2 }
      } else if (k > 0 && (d < hd(0) || (d == hd(0) && i < hi(0)))) {
        hd(0) = d; hi(0) = i
        siftDown(k)
      }

    /** The kept ids ascending by (distance, id), by heapsort in place; the
      * heap is spent afterwards.
      */
    def sorted(): Array[Int] = {
      var end = size
      while (end > 1) { end -= 1; swap(0, end); siftDown(end) }
      java.util.Arrays.copyOf(hi, size)
    }
  }

  /** Top-k nearest base indices for one query vector, ascending by
    * (distance, id).
    *
    * @param selfId index in `base` to exclude (use -1 for external queries)
    */
  def topK(base: Array[Array[Double]], q: Array[Double], k: Int, selfId: Int): Array[Int] = {
    val heap = new Heap(k)
    var i = 0
    while (i < base.length) {
      if (i != selfId) heap.offer(sqDist(base(i), q), i)
      i += 1
    }
    heap.sorted()
  }

  /** `base` transposed into zero-padded tiles: tiles(t)(j)(r) = base(t·TileRows + r)(j). */
  private def tiles(base: Array[Array[Double]]): Array[Array[Array[Double]]] =
    Array.tabulate((base.length + TileRows - 1) / TileRows) { t =>
      val rows = math.min(TileRows, base.length - t * TileRows)
      Array.tabulate(base(0).length) { j =>
        val col = new Array[Double](TileRows)
        var r = 0
        while (r < rows) { col(r) = base(t * TileRows + r)(j); r += 1 }
        col
      }
    }

  /** Exact k-NN of `qs` against the `n` tiled base rows. With `excludeSelf`,
    * qs(i) is base row `first + i` and is left out of its own row.
    */
  private def scan(tiles: Array[Array[Array[Double]]], n: Int, qs: Array[Array[Double]],
                   first: Int, k: Int, excludeSelf: Boolean): Array[Array[Int]] = {
    val heaps = Array.fill(qs.length)(new Heap(k))
    val acc = new Array[Double](TileRows)
    var b = 0
    while (b < qs.length) {
      val bEnd = math.min(b + QueryBlock, qs.length)
      var t = 0
      while (t < tiles.length) {
        val tile = tiles(t)
        val row0 = t * TileRows
        val rows = math.min(TileRows, n - row0)
        var qi = b
        while (qi < bEnd) {
          val q = qs(qi)
          java.util.Arrays.fill(acc, 0.0)
          var j = 0
          while (j < tile.length) {
            // Bounded by acc.length (not an offset index) so C2 vectorises it.
            val col = tile(j); val qj = q(j)
            var r = 0
            while (r < acc.length) { val e = col(r) - qj; acc(r) = acc(r) + e * e; r += 1 }
            j += 1
          }
          val heap = heaps(qi)
          val self = if (excludeSelf) first + qi - row0 else -1
          var r = 0
          while (r < rows) {
            if (r != self) heap.offer(acc(r), row0 + r)
            r += 1
          }
          qi += 1
        }
        t += 1
      }
      b = bEnd
    }
    heaps.map(_.sorted())
  }

  /** Driver-side exact k-NN of every query against `base`, row for row the
    * same as [[topK]]. With `excludeSelf`, queries(i) is base row i.
    */
  def blockKnn(base: Array[Array[Double]], queries: Array[Array[Double]], k: Int,
               excludeSelf: Boolean): Array[Array[Int]] =
    scan(tiles(base), base.length, queries, 0, k, excludeSelf)

  /** All-pairs k'-NN of `base` against itself (self excluded), computed on
    * Spark. Row i of the result is `N_k'(p_i)` ascending by (distance, id).
    */
  def selfKnn(spark: SparkSession, base: Array[Array[Double]], k: Int): Array[Array[Int]] =
    knn(spark, base, base, k, excludeSelf = true)

  /** k-NN of each query against `base`; ground truth for Equation 1. */
  def queryKnn(spark: SparkSession, base: Array[Array[Double]],
               queries: Array[Array[Double]], k: Int): Array[Array[Int]] =
    knn(spark, base, queries, k, excludeSelf = false)

  private def knn(spark: SparkSession, base: Array[Array[Double]],
                  queries: Array[Array[Double]], k: Int,
                  excludeSelf: Boolean): Array[Array[Int]] = {
    require(k < base.length, s"k=$k must be < n=${base.length}")
    val n = base.length
    SparkRows.map(spark, queries.length, (tiles(base), queries)) { case ((t, qs), lo, hi) =>
      scan(t, n, qs.slice(lo, hi), lo, k, excludeSelf)
    }
  }
}
