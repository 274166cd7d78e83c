package repro.baselines

import repro.{Oracle, SparkSpec}
import repro.core.{KnnMatrix, PartitionIndex}

class KMeansSpec extends SparkSpec {

  private lazy val blobs: Array[Array[Double]] = {
    val rng = new java.util.Random(81)
    Array.tabulate(300) { i =>
      val c = i % 3
      Array(c * 50.0 + rng.nextGaussian(), -c * 50.0 + rng.nextGaussian())
    }
  }

  test("fitLocal recovers well-separated blob centers") {
    val km = KMeansPartitioner.fitLocal(blobs, 3, seed = 1)
    // each centroid should be within 1 unit of a true center
    val centers = Array(Array(0.0, 0.0), Array(50.0, -50.0), Array(100.0, -100.0))
    km.centroids.foreach { c =>
      val nearest = centers.map(t => math.sqrt(KnnMatrix.sqDist(c, t))).min
      assert(nearest < 2.0, s"centroid ${c.toSeq} far from any true center")
    }
  }

  test("assign picks the nearest centroid") {
    val km = KMeansPartitioner.fitLocal(blobs, 3, seed = 2)
    for (i <- Seq(0, 1, 2, 100, 299)) {
      val want = km.centroids.indices.minBy(c => KnnMatrix.sqDist(km.centroids(c), blobs(i)))
      assert(km.assign(blobs(i)) == want)
    }
  }

  test("probeOrder ranks bins by ascending centroid distance, starting at assign") {
    val km = KMeansPartitioner.fitLocal(blobs, 3, seed = 3)
    val q = blobs(5)
    val order = km.probeOrder(q)
    assert(order.head == km.assign(q))
    val dists = order.map(c => KnnMatrix.sqDist(km.centroids(c), q))
    assert(dists.toSeq == dists.sorted.toSeq)
  }

  test("k-means index: every point lands in its nearest centroid's bin (oracle-checked)") {
    val km = KMeansPartitioner.fitLocal(blobs, 3, seed = 5)
    val index = PartitionIndex.build(km, blobs, spark)
    import spark.implicits._
    // point table + centroid table with scalar coordinates for DuckDB
    val pts = spark.sparkContext.parallelize(
      blobs.toIndexedSeq.zipWithIndex.map { case (v, i) => (i.toLong, v(0), v(1)) })
      .toDF("id", "x", "y")
    val cents = spark.sparkContext.parallelize(
      km.centroids.toIndexedSeq.zipWithIndex.map { case (c, b) => (b, c(0), c(1)) })
      .toDF("bin", "cx", "cy")
    val got = index.assignments.toIndexedSeq.zipWithIndex
      .map { case (b, i) => (i.toDouble, b.toDouble) }.toDF("id", "bin")
    Oracle.assertEquivalent(
      got,
      """
        |WITH d AS (
        |  SELECT p.id AS id, c.bin AS bin,
        |         (CAST(p.x AS DOUBLE)-CAST(c.cx AS DOUBLE))*(CAST(p.x AS DOUBLE)-CAST(c.cx AS DOUBLE)) +
        |         (CAST(p.y AS DOUBLE)-CAST(c.cy AS DOUBLE))*(CAST(p.y AS DOUBLE)-CAST(c.cy AS DOUBLE)) AS dist
        |  FROM pts p CROSS JOIN cents c
        |), r AS (
        |  SELECT id, bin, ROW_NUMBER() OVER (PARTITION BY id ORDER BY dist, bin) AS rk FROM d
        |)
        |SELECT CAST(id AS DOUBLE) AS id, CAST(bin AS DOUBLE) AS bin FROM r WHERE rk = 1
        |""".stripMargin,
      "pts" -> pts, "cents" -> cents)
  }

  test("empty-cluster reseeding keeps k centroids alive") {
    // k larger than natural clusters still yields k distinct centroids
    val km = KMeansPartitioner.fitLocal(blobs, 7, seed = 6)
    assert(km.centroids.length == 7)
    val idx = PartitionIndex.build(km, blobs)
    assert(idx.binSizes.count(_ > 0) >= 3)
  }

  test("fitLocal is deterministic in the seed") {
    val a = KMeansPartitioner.fitLocal(blobs, 4, seed = 7)
    val b = KMeansPartitioner.fitLocal(blobs, 4, seed = 7)
    assert(a.centroids.zip(b.centroids).forall { case (x, y) => x.sameElements(y) })
  }

  test("more iterations never worsen the k-means objective") {
    def objective(km: KMeansPartitioner): Double =
      blobs.map(v => KnnMatrix.sqDist(km.centroids(km.assign(v)), v)).sum
    val short = KMeansPartitioner.fitLocal(blobs, 3, iters = 1, seed = 8)
    val long = KMeansPartitioner.fitLocal(blobs, 3, iters = 25, seed = 8)
    assert(objective(long) <= objective(short) + 1e-6)
  }
}
