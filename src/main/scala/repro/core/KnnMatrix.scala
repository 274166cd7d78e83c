package repro.core

import org.apache.spark.sql.SparkSession

/** Exact k'-NN matrix construction (Algorithm 1, step 1).
  *
  * This is the paper's single preprocessing step: row i of the matrix holds
  * the indices of the k' true nearest neighbors of point i (Figure 2). We
  * run it as a Spark job — the vector table is broadcast (MBs at our scale
  * factors) and each task scans its slice of query rows against it, keeping
  * a bounded max-heap per row. The same kernel also produces exact query
  * ground truth for the accuracy metric (Equation 1), so every recall number
  * in the benches is measured against an exact oracle.
  */
object KnnMatrix {

  @inline def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < a.length) { val d = a(j) - b(j); s += d * d; j += 1 }
    s
  }

  /** Top-k nearest base indices for one query vector.
    *
    * @param selfId index in `base` to exclude (use -1 for external queries)
    */
  def topK(base: Array[Array[Double]], q: Array[Double], k: Int, selfId: Int): Array[Int] = {
    // Bounded max-heap over (dist, idx): root is the worst kept candidate.
    val hd = new Array[Double](k)
    val hi = new Array[Int](k)
    var size = 0
    var i = 0
    while (i < base.length) {
      if (i != selfId) {
        val d = sqDist(base(i), q)
        if (size < k) {
          // sift up
          var c = size
          hd(c) = d; hi(c) = i; size += 1
          while (c > 0 && hd((c - 1) / 2) < hd(c)) {
            val p = (c - 1) / 2
            val td = hd(p); hd(p) = hd(c); hd(c) = td
            val ti = hi(p); hi(p) = hi(c); hi(c) = ti
            c = p
          }
        } else if (d < hd(0)) {
          hd(0) = d; hi(0) = i
          // sift down
          var c = 0
          var done = false
          while (!done) {
            val l = 2 * c + 1; val r = l + 1
            var m = c
            if (l < k && hd(l) > hd(m)) m = l
            if (r < k && hd(r) > hd(m)) m = r
            if (m == c) done = true
            else {
              val td = hd(m); hd(m) = hd(c); hd(c) = td
              val ti = hi(m); hi(m) = hi(c); hi(c) = ti
              c = m
            }
          }
        }
      }
      i += 1
    }
    // ascending by distance
    hi.take(size).zip(hd.take(size)).sortBy(_._2).map(_._1)
  }

  /** All-pairs k'-NN of `base` against itself (self excluded), computed on
    * Spark. Row i of the result is `N_k'(p_i)` ascending by distance.
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
    val bc = spark.sparkContext.broadcast(base)
    val bq = spark.sparkContext.broadcast(queries)
    val out = spark.sparkContext
      .range(0, queries.length, numSlices = spark.sparkContext.defaultParallelism * 2)
      .map { qi =>
        val i = qi.toInt
        (i, topK(bc.value, bq.value(i), k, if (excludeSelf) i else -1))
      }
      .collect()
    bc.destroy(); bq.destroy()
    val res = new Array[Array[Int]](queries.length)
    out.foreach { case (i, nb) => res(i) = nb }
    res
  }
}
