package repro.core

import repro.{Oracle, SparkSpec, SynthData}
import repro.baselines.{BspTree, KMeansPartitioner}
import repro.nn.Net

/** Simple fixed partitioner for testing the index mechanics in isolation:
  * bins points by the sign pattern of their first two coordinates.
  * Top-level so Spark can serialize it without dragging in the test suite.
  */
private class QuadrantPartitioner extends SpacePartitioner {
  override val numBins = 4
  override def assign(v: Array[Double]): Int =
    (if (v(0) >= 0) 1 else 0) + 2 * (if (v(1) >= 0) 1 else 0)
  override def binScores(q: Array[Double]): Array[Double] =
    Array.tabulate(4) { b =>
      val sx = if ((b & 1) == 1) 1.0 else -1.0
      val sy = if ((b & 2) == 2) 1.0 else -1.0
      sx * q(0) + sy * q(1)
    }
}

class PartitionIndexSpec extends SparkSpec {

  private lazy val data = SynthData.gaussianMixture(300, 4, 4, seed = 31)
  private lazy val index = PartitionIndex.build(new QuadrantPartitioner, data)
  private lazy val model = UspTrainer.train(data, KnnMatrix.selfKnn(spark, data, 5),
    UspConfig(m = 4, epochs = 8, batchSize = 64, hidden = 16, seed = 34))

  test("lookup table covers every point exactly once") {
    assert(index.lookup.map(_.length).sum == data.length)
    assert(index.lookup.flatten.sorted.toSeq == data.indices.toSeq)
  }

  test("lookup table groups ids by their assigned bin") {
    for (b <- 0 until 4; i <- index.lookup(b))
      assert(index.assignments(i) == b)
  }

  test("binSizes matches the lookup table") {
    assert(index.binSizes.toSeq == index.lookup.map(_.length).toSeq)
  }

  test("Spark-side build gives identical assignments to driver-side build") {
    val sparkIdx = PartitionIndex.build(new QuadrantPartitioner, data, spark)
    assert(sparkIdx.assignments.sameElements(index.assignments))
    // a trained model: local[*] task threads share one broadcast Net
    val mp = new ModelPartitioner(model.net, 4)
    val sparkModelIdx = PartitionIndex.build(mp, data, spark)
    assert(sparkModelIdx.assignments.sameElements(PartitionIndex.build(mp, data).assignments))
    assert(sparkModelIdx.assignments.sameElements(model.assignments))
    // one row, and fewer rows than the 2 × defaultParallelism row ranges
    for (n <- Seq(1, 2 * spark.sparkContext.defaultParallelism - 1)) {
      val few = data.take(n)
      assert(PartitionIndex.build(mp, few, spark).assignments.sameElements(few.map(mp.assign)), s"n=$n")
    }
  }

  test("candidates grow monotonically with probe depth and end at the full dataset") {
    val q = data(0)
    var prev = -1
    for (p <- 1 to 4) {
      val c = index.candidates(q, p)
      assert(c.length >= prev)
      prev = c.length
    }
    assert(index.candidates(q, 4).length == data.length)
  }

  test("first probed bin is the assigned bin for points in the dataset") {
    for (i <- Seq(0, 50, 100, 299)) {
      val order = index.partitioner.probeOrder(data(i))
      assert(order.head == index.assignments(i),
        s"point $i assigned to ${index.assignments(i)} but probes ${order.head} first")
    }
  }

  test("search returns the exact k-NN among the candidates") {
    val q = SynthData.gaussianMixture(1, 4, 4, seed = 32)(0)
    val got = index.search(data, q, k = 5, mProbe = 2).toSeq
    val cand = index.candidates(q, 2)
    val want = cand.sortBy(i => KnnMatrix.sqDist(data(i), q)).take(5).toSeq
    assert(got == want)
  }

  test("full-probe search equals global brute-force k-NN") {
    val q = SynthData.gaussianMixture(1, 4, 4, seed = 33)(0)
    val got = index.search(data, q, k = 10, mProbe = 4).toSeq
    val want = data.indices.sortBy(i => KnnMatrix.sqDist(data(i), q)).take(10).toSeq
    assert(got == want)
  }

  test("Spark-built assignments and binSizes match a DuckDB histogram") {
    val sparkIdx = PartitionIndex.build(new QuadrantPartitioner, data, spark)
    import spark.implicits._
    val asg = sparkIdx.assignments.toIndexedSeq.zipWithIndex
      .map { case (b, i) => (i.toLong, b) }.toDF("id", "bin")
    // empty bins have no GROUP BY row on the SQL side
    val hist = sparkIdx.binSizes.toIndexedSeq.zipWithIndex.filter(_._1 > 0)
      .map { case (c, b) => (b.toDouble, c.toDouble) }.toDF("bin", "cnt")
    Oracle.assertEquivalent(
      hist,
      "SELECT CAST(bin AS DOUBLE) AS bin, CAST(count(*) AS DOUBLE) AS cnt FROM asg GROUP BY bin",
      "asg" -> asg)
  }

  test("ModelPartitioner assign equals argmax of its probs and heads probeOrder") {
    val mp = new ModelPartitioner(model.net, 4)
    for (i <- Seq(1, 42, 137)) {
      val p = mp.binScores(data(i))
      assert(mp.assign(data(i)) == p.indexOf(p.max))
      assert(mp.probeOrder(data(i)).head == mp.assign(data(i)))
      assert(mp.probeOrder(data(i)).sorted.toSeq == Seq(0, 1, 2, 3))
    }
  }

  test("assignAll equals rows.map(assign) for every partitioner kind") {
    // more rows than one ModelPartitioner inference block, repeats included
    val rows = Array.tabulate(4101)(i => data((i * 7) % data.length))
    val leaves = Array.tabulate(4)(b => new ModelPartitioner(Net.mlp(4, 8, 3, seed = b), 3))
    val partitioners: Seq[SpacePartitioner] = Seq(
      new ModelPartitioner(model.net, 4),
      KMeansPartitioner.fitLocal(data, 5, seed = 3),
      BspTree.build(data, depth = 3, rule = BspTree.kd),
      new HierPartitioner(new ModelPartitioner(model.net, 4), leaves))
    for (p <- partitioners) {
      assert(p.assignAll(rows).sameElements(rows.map(p.assign)), p.getClass.getSimpleName)
      assert(p.assignAll(Array.empty[Array[Double]]).isEmpty, p.getClass.getSimpleName)
    }
  }

  test("threads sharing one ModelPartitioner get the sequential results") {
    val mp = new ModelPartitioner(model.net, 4)
    val want = data.map(v => (mp.assign(v), mp.probeOrder(v).toSeq)).toSeq
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val jobs = (0 until 4).map { _ =>
        pool.submit(new java.util.concurrent.Callable[Seq[(Int, Seq[Int])]] {
          override def call(): Seq[(Int, Seq[Int])] =
            data.map(v => (mp.assign(v), mp.probeOrder(v).toSeq)).toSeq
        })
      }
      jobs.foreach(j => assert(j.get() == want))
    } finally pool.shutdown()
  }

  test("threads running assignAll at once on a model and a hierarchy get the sequential results") {
    // 5 000 rows: each assignAll splits into parallel inference blocks, so
    // the blocks of four callers share the inference pool at once, as the
    // tasks of a Spark index build do
    val rows = Array.tabulate(5000)(i => data((i * 7) % data.length))
    val leaves = Array.tabulate(4)(b => new ModelPartitioner(Net.mlp(4, 8, 3, seed = b), 3))
    val partitioners: Seq[SpacePartitioner] = Seq(
      new ModelPartitioner(model.net, 4), new HierPartitioner(new ModelPartitioner(model.net, 4), leaves))
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      for (p <- partitioners) {
        val want = rows.map(p.assign).toSeq
        val start = new java.util.concurrent.CountDownLatch(1)
        val jobs = (0 until 4).map { _ =>
          pool.submit(new java.util.concurrent.Callable[Seq[Int]] {
            override def call(): Seq[Int] = { start.await(); p.assignAll(rows).toSeq }
          })
        }
        start.countDown()
        jobs.foreach(j => assert(j.get() == want, p.getClass.getSimpleName))
      }
    } finally pool.shutdown()
  }

  test("index construction rejects out-of-range assignments") {
    intercept[IllegalArgumentException] {
      new PartitionIndex(new QuadrantPartitioner, Array(0, 1, 7))
    }
  }
}
