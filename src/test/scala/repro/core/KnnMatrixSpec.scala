package repro.core

import repro.{Oracle, SparkSpec, SynthData}

class KnnMatrixSpec extends SparkSpec {

  private def naiveKnn(base: Array[Array[Double]], q: Array[Double], k: Int,
                       selfId: Int): Seq[Int] =
    base.indices.filter(_ != selfId)
      .sortBy(i => KnnMatrix.sqDist(base(i), q)).take(k)

  test("sqDist matches the Euclidean formula") {
    assert(KnnMatrix.sqDist(Array(0.0, 0.0), Array(3.0, 4.0)) == 25.0)
    assert(KnnMatrix.sqDist(Array(1.0, 1.0, 1.0), Array(1.0, 1.0, 1.0)) == 0.0)
  }

  test("topK matches a naive sort for random data, including order") {
    val data = SynthData.gaussianMixture(200, 6, 3, seed = 1)
    for (qi <- Seq(0, 17, 99, 199)) {
      val got = KnnMatrix.topK(data, data(qi), 10, qi).toSeq
      val want = naiveKnn(data, data(qi), 10, qi)
      assert(got == want, s"query $qi")
    }
  }

  test("topK with selfId=-1 can return the point itself at distance 0") {
    val data = SynthData.gaussianMixture(50, 4, 2, seed = 3)
    val got = KnnMatrix.topK(data, data(5), 3, selfId = -1)
    assert(got.head == 5)
  }

  test("topK handles k=1") {
    val data = SynthData.gaussianMixture(30, 4, 2, seed = 5)
    val got = KnnMatrix.topK(data, data(0), 1, selfId = 0)
    assert(got.length == 1 && got.head == naiveKnn(data, data(0), 1, 0).head)
  }

  test("selfKnn (Spark) excludes self and matches naive for every point") {
    val data = SynthData.gaussianMixture(120, 5, 4, seed = 7)
    val knn = KnnMatrix.selfKnn(spark, data, 5)
    assert(knn.length == 120)
    for (i <- data.indices) {
      assert(!knn(i).contains(i), s"point $i contains itself")
      assert(knn(i).toSeq == naiveKnn(data, data(i), 5, i), s"row $i mismatch")
    }
  }

  test("queryKnn (Spark) ground truth matches naive for held-out queries") {
    val base = SynthData.gaussianMixture(100, 4, 3, seed = 9)
    val queries = SynthData.gaussianMixture(20, 4, 3, seed = 10)
    val gt = KnnMatrix.queryKnn(spark, base, queries, 7)
    for (qi <- queries.indices)
      assert(gt(qi).toSeq == naiveKnn(base, queries(qi), 7, -1))
  }

  test("ties are ordered by (distance, id) in topK, blockKnn and selfKnn") {
    // ids 0, 1, 2 at squared distance 4 from point 4, then id 3 at distance 1
    val data = Array(Array(2.0, 0.0), Array(0.0, 2.0), Array(-2.0, 0.0), Array(1.0, 0.0), Array(0.0, 0.0))
    val want = Seq(3, 0, 1)
    assert(KnnMatrix.topK(data.take(4), data(4), 3, selfId = -1).toSeq == want)
    assert(KnnMatrix.topK(data, data(4), 3, selfId = 4).toSeq == want)
    assert(KnnMatrix.blockKnn(data.take(4), data.drop(4), 3, excludeSelf = false).head.toSeq == want)
    assert(KnnMatrix.blockKnn(data, data, 3, excludeSelf = true)(4).toSeq == want)
    assert(KnnMatrix.selfKnn(spark, data, 3)(4).toSeq == want)
  }

  test("all-duplicate points: every row lists the other ids in ascending order") {
    val n = 2 * KnnMatrix.TileRows + 3
    val data = Array.fill(n)(Array(1.5, -2.0, 0.25))
    val k = 7
    val want = Array.tabulate(n)(i => (0 until n).filter(_ != i).take(k))
    val viaSpark = KnnMatrix.selfKnn(spark, data, k)
    val viaKernel = KnnMatrix.blockKnn(data, data, k, excludeSelf = true)
    for (i <- 0 until n) {
      assert(KnnMatrix.topK(data, data(i), k, i).toSeq == want(i), s"topK row $i")
      assert(viaKernel(i).toSeq == want(i), s"blockKnn row $i")
      assert(viaSpark(i).toSeq == want(i), s"selfKnn row $i")
    }
  }

  test("blockKnn equals topK row for row at tile edges, for self and external queries") {
    val w = KnnMatrix.TileRows
    val rng = new java.util.Random(17)
    for (n <- Seq(1, w - 1, w, w + 1, 2 * w + 3); d <- Seq(1, 33)) {
      val base = Array.fill(n)(Array.fill(d)(rng.nextGaussian()))
      val queries = Array.fill(5)(Array.fill(d)(rng.nextGaussian()))
      val k = n - 1
      // self mode: every id, including the tile boundaries 255/256 and 511/512, is some row's self
      val self = KnnMatrix.blockKnn(base, base, k, excludeSelf = true)
      for (i <- 0 until n)
        assert(self(i).toSeq == KnnMatrix.topK(base, base(i), k, i).toSeq, s"n=$n d=$d self row $i")
      val ext = KnnMatrix.blockKnn(base, queries, k, excludeSelf = false)
      for (qi <- queries.indices)
        assert(ext(qi).toSeq == KnnMatrix.topK(base, queries(qi), k, -1).toSeq, s"n=$n d=$d query $qi")
    }
  }

  test("selfKnn (Spark) on siftLite n=2000 equals the driver-side kernel") {
    val data = SynthData.siftLite(2000, seed = 19)
    val viaSpark = KnnMatrix.selfKnn(spark, data, 10)
    val viaKernel = KnnMatrix.blockKnn(data, data, 10, excludeSelf = true)
    assert(viaSpark.length == 2000)
    for (i <- data.indices) assert(viaSpark(i).sameElements(viaKernel(i)), s"row $i")
  }

  test("queryKnn (Spark) with fewer queries than row ranges equals the driver-side kernel") {
    val data = SynthData.siftLite(2000, seed = 19)
    for (nq <- Seq(1, 3)) {
      val queries = SynthData.siftLite(nq, seed = 23)
      val gt = KnnMatrix.queryKnn(spark, data, queries, 10)
      val want = KnnMatrix.blockKnn(data, queries, 10, excludeSelf = false)
      assert(gt.length == nq)
      for (qi <- 0 until nq) assert(gt(qi).sameElements(want(qi)), s"$nq queries, row $qi")
    }
  }

  test("selfKnn rejects k >= n") {
    val data = SynthData.gaussianMixture(5, 3, 1, seed = 11)
    intercept[IllegalArgumentException](KnnMatrix.selfKnn(spark, data, 5))
  }

  test("selfKnn agrees with a DuckDB SQL cross-join + window computation") {
    // small d so we can spread coordinates into scalar columns for the oracle
    val data = SynthData.gaussianMixture(40, 2, 3, seed = 13)
    val k = 3
    val knn = KnnMatrix.selfKnn(spark, data, k)
    import spark.implicits._
    // flatten to (id, rank, nid) for scalar comparison
    val flat = knn.toIndexedSeq.zipWithIndex
      .flatMap { case (nb, i) => nb.indices.map(r => (i.toDouble, r.toDouble, nb(r).toDouble)) }
      .toDF("id", "rank", "nid")
    val pts = spark.sparkContext
      .parallelize(data.toIndexedSeq.zipWithIndex.map { case (v, i) => (i.toLong, v(0), v(1)) })
      .toDF("id", "x", "y")
    Oracle.assertEquivalent(
      flat,
      s"""
         |WITH d AS (
         |  SELECT a.id AS id, b.id AS nid,
         |         (CAST(a.x AS DOUBLE)-CAST(b.x AS DOUBLE))*(CAST(a.x AS DOUBLE)-CAST(b.x AS DOUBLE)) +
         |         (CAST(a.y AS DOUBLE)-CAST(b.y AS DOUBLE))*(CAST(a.y AS DOUBLE)-CAST(b.y AS DOUBLE)) AS dist
         |  FROM pts a JOIN pts b ON a.id <> b.id
         |), r AS (
         |  SELECT id, nid, ROW_NUMBER() OVER (PARTITION BY id ORDER BY dist, nid) - 1 AS rank
         |  FROM d
         |)
         |SELECT CAST(id AS DOUBLE) AS id, CAST(rank AS DOUBLE) AS rank, CAST(nid AS DOUBLE) AS nid
         |FROM r WHERE rank < $k
         |""".stripMargin,
      "pts" -> pts)
  }

  test("knn of clustered data stays within the cluster") {
    // two far-apart blobs: all neighbors of a point must come from its own blob
    val rng = new java.util.Random(15)
    val data = Array.tabulate(60) { i =>
      val off = if (i < 30) 0.0 else 1000.0
      Array(off + rng.nextGaussian(), off + rng.nextGaussian())
    }
    val knn = KnnMatrix.selfKnn(spark, data, 5)
    for (i <- 0 until 60; j <- knn(i))
      assert((i < 30) == (j < 30), s"neighbor $j of $i crossed blobs")
  }
}
