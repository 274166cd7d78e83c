package repro.eval

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{CandidateIndex, KnnMatrix, PartitionIndex, SpacePartitioner}

/** Deterministic first-coordinate bucket partitioner — top-level so Spark
  * serialization never captures the test suite.
  */
private class BucketPartitioner extends SpacePartitioner {
  override val numBins = 3
  override def assign(v: Array[Double]): Int =
    if (v(0) < -1) 0 else if (v(0) < 1) 1 else 2
  override def binScores(q: Array[Double]): Array[Double] =
    Array(-2.0, 0.0, 2.0).map(c => -math.abs(q(0) - c))
}

class SweepSpec extends SparkSpec {

  private lazy val data = SynthData.gaussianMixture(200, 3, 4, seed = 61, scale = 3.0)
  private lazy val queries = SynthData.gaussianMixture(30, 3, 4, seed = 62, scale = 3.0)
  private lazy val gt = KnnMatrix.queryKnn(spark, data, queries, 5)
  private lazy val index = PartitionIndex.build(new BucketPartitioner, data)

  test("accuracy is monotone nondecreasing in probe depth and hits 1.0 at full probe") {
    val points = Sweep.run(index, data.length, queries, gt, Seq(1, 2, 3))
    assert(points.map(_.accuracy) == points.map(_.accuracy).sorted)
    assert(math.abs(points.last.accuracy - 1.0) < 1e-12)
    assert(math.abs(points.last.avgCand - data.length) < 1e-9)
  }

  test("avgCand is monotone nondecreasing in probe depth") {
    val points = Sweep.run(index, data.length, queries, gt, Seq(1, 2, 3))
    assert(points.map(_.avgCand) == points.map(_.avgCand).sorted)
  }

  test("a perfect index (all points probed) has accuracy exactly 1") {
    val all = new CandidateIndex {
      override def candidates(q: Array[Double], p: Int): Array[Int] =
        Array.tabulate(data.length)(identity)
    }
    val pts = Sweep.run(all, data.length, queries, gt, Seq(1))
    assert(pts.head.accuracy == 1.0)
  }

  test("an empty index has accuracy 0 and candidate size 0") {
    val none = new CandidateIndex {
      override def candidates(q: Array[Double], p: Int): Array[Int] = Array.empty
    }
    val pts = Sweep.run(none, data.length, queries, gt, Seq(1))
    assert(pts.head.accuracy == 0.0 && pts.head.avgCand == 0.0)
  }

  test("Sweep.run requires ground truth for every query, no more and no less") {
    for (g <- Seq(gt.dropRight(1), gt :+ gt.head)) {
      val e = intercept[IllegalArgumentException](Sweep.run(index, data.length, queries, g, Seq(1, 2)))
      assert(e.getMessage.contains(s"${queries.length} queries but ground truth for ${g.length}"))
    }
  }

  test("candidateSizeAtAccuracy interpolates linearly between sweep points") {
    val pts = Seq(
      Sweep.Point(1, 100.0, 0.5),
      Sweep.Point(2, 200.0, 0.9))
    val c = Sweep.candidateSizeAtAccuracy(pts, 0.7).get
    assert(math.abs(c - 150.0) < 1e-9)
  }

  test("candidateSizeAtAccuracy returns None when the target is never reached") {
    val pts = Seq(Sweep.Point(1, 100.0, 0.5))
    assert(Sweep.candidateSizeAtAccuracy(pts, 0.9).isEmpty)
  }

  test("candidateSizeAtAccuracy returns the first point when it already meets the target") {
    val pts = Seq(Sweep.Point(1, 100.0, 0.95), Sweep.Point(2, 200.0, 0.99))
    assert(Sweep.candidateSizeAtAccuracy(pts, 0.9).get == 100.0)
  }

  test("Sweep.run at m'=2 agrees with a DuckDB SQL formulation (oracle-checked)") {
    import spark.implicits._
    val probe = 2
    // one single-query sweep per query: avgCand is its |C|, accuracy·k its hits
    val perQuery = queries.indices.map { qi =>
      val pt = Sweep.run(index, data.length, Array(queries(qi)), Array(gt(qi)), Seq(probe)).head
      (qi.toDouble, pt.avgCand, pt.accuracy * gt(qi).length)
    }
    val res = perQuery.toDF("qid", "cand_size", "hits")
    // scalar views for DuckDB
    val probedFlat = queries.toIndexedSeq.zipWithIndex.flatMap { case (q, qi) =>
      index.partitioner.probeOrder(q).take(probe).map(b => (qi.toLong, b))
    }.toDF("qid", "bin")
    val assignDF = index.assignments.toIndexedSeq.zipWithIndex
      .map { case (b, i) => (i.toLong, b) }.toDF("id", "bin")
    val gtFlat = gt.toIndexedSeq.zipWithIndex.flatMap { case (g, qi) =>
      g.toSeq.map(nid => (qi.toLong, nid.toLong))
    }.toDF("qid", "nid")
    Oracle.assertEquivalent(
      res,
      """
        |WITH cand AS (
        |  SELECT p.qid AS qid, a.id AS id
        |  FROM probed p JOIN asg a ON CAST(p.bin AS INT) = CAST(a.bin AS INT)
        |), cs AS (
        |  SELECT qid, count(*) AS cand_size FROM cand GROUP BY qid
        |), h AS (
        |  SELECT g.qid AS qid, count(*) AS hits
        |  FROM gt g JOIN cand c ON g.qid = c.qid AND CAST(g.nid AS BIGINT) = CAST(c.id AS BIGINT)
        |  GROUP BY g.qid
        |)
        |SELECT CAST(cs.qid AS DOUBLE) AS qid,
        |       CAST(cs.cand_size AS DOUBLE) AS cand_size,
        |       CAST(COALESCE(h.hits, 0) AS DOUBLE) AS hits
        |FROM cs LEFT JOIN h ON cs.qid = h.qid
        |""".stripMargin,
      "probed" -> probedFlat, "asg" -> assignDF, "gt" -> gtFlat)
    // and the per-query rows add up to the sweep over all queries
    val whole = Sweep.run(index, data.length, queries, gt, Seq(probe)).head
    assert(math.abs(whole.avgCand - perQuery.map(_._2).sum / queries.length) < 1e-9)
    assert(math.abs(whole.accuracy - perQuery.map(_._3).sum / gt.map(_.length).sum) < 1e-9)
  }
}
