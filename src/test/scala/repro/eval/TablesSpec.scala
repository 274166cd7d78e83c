package repro.eval

import repro.SparkSpec

/** Tiny-scale smoke tests of every table harness — the benches run the same
  * code at full scale, so these catch wiring regressions in seconds.
  */
class TablesSpec extends SparkSpec {

  test("table2 rows carry the paper's reference strings and our counts") {
    val rows = Tables.table2()
    assert(rows.map(_.method).toSet ==
      Set("Neural LSH (hidden 512)", "Ours (hidden 128)", "K-Means"))
    assert(rows.forall(_.params > 0))
    assert(rows.forall(_.paperParams.nonEmpty))
  }

  private def table2Params = Tables.table2().map(r => r.method -> r.params).toMap

  test("Table 2 ordering holds: Neural LSH > Ours > K-means") {
    val rows = table2Params
    val nlsh = rows("Neural LSH (hidden 512)")
    val ours = rows("Ours (hidden 128)")
    val km = rows("K-Means")
    assert(nlsh > ours && ours > km)
  }

  test("Table 2 K-means entry reproduces the paper's 33k exactly") {
    assert(table2Params("K-Means") == 32768L) // ≈33k in the paper
  }

  test("Table 2 Neural-LSH-to-ours ratio is close to the paper's ≈4x") {
    val rows = table2Params
    val ratio = rows("Neural LSH (hidden 512)").toDouble / rows("Ours (hidden 128)")
    assert(ratio > 2.5 && ratio < 6.0, s"ratio $ratio out of the paper's ballpark (729k/183k≈4)")
  }

  test("table3 produces one row per (dataset, bins) config at tiny scale") {
    val rows = Tables.table3(spark, nMnist = 300, nSift = 400, epochs = 2)
    assert(rows.map(r => (r.dataset, r.bins)).toSet == Set(
      ("MNIST-lite", 16), ("MNIST-lite", 256), ("SIFT-lite", 16), ("SIFT-lite", 256)))
    assert(rows.forall(_.minutes > 0))
    assert(rows.map(_.eta).toSet == Set(7.0, 30.0, 10.0))
  }

  test("sift16Sweeps yields monotone sweeps for all five methods at tiny scale") {
    val sweeps = Tables.sift16Sweeps(spark, n = 800, nQueries = 40, epochs = 4)
    assert(sweeps.map(_.method).toSet == Set(
      "Ours (1 model)", "Ours (ensemble of 3)", "Neural LSH", "K-Means", "Cross-polytope LSH"))
    sweeps.foreach { s =>
      assert(s.points.length == 16)
      val acc = s.points.map(_.accuracy)
      assert(acc == acc.sorted, s"${s.method} accuracy not monotone")
      assert(math.abs(s.points.last.accuracy - 1.0) < 1e-9,
        s"${s.method} must reach accuracy 1.0 at full probe")
      assert(math.abs(s.points.last.avgCand - 800.0) < 1e-6)
    }
  }

  test("table4 computes decreases from sweeps (synthetic sweep data)") {
    def mk(method: String, c85: Double) = Tables.SweepResult(method, Seq(
      Sweep.Point(1, c85 / 2, 0.5), Sweep.Point(2, c85, 0.85), Sweep.Point(3, c85 * 2, 1.0)))
    val rows = Tables.table4(Seq(
      mk("Ours (ensemble of 3)", 100), mk("Ours (1 model)", 120),
      mk("Neural LSH", 150), mk("K-Means", 160)))
    val byName = rows.map(r => r.method -> r).toMap
    assert(math.abs(byName("Neural LSH").decreasePct - (1 - 100.0 / 150) * 100) < 1e-9)
    assert(math.abs(byName("K-Means").decreasePct - (1 - 100.0 / 160) * 100) < 1e-9)
    assert(rows.forall(_.oursCandAt85 == 100.0))
  }

  test("scannPipelines returns the three pipelines with sane fields at tiny scale") {
    val rows = Tables.scannPipelines(spark, n = 800, nQueries = 30, epochs = 4)
    assert(rows.length == 3)
    val vanilla = rows.find(_.method.startsWith("Vanilla")).get
    assert(math.abs(vanilla.avgCand - 800.0) < 1e-6, "vanilla scans the whole set")
    rows.foreach { r =>
      assert(r.accuracy >= 0 && r.accuracy <= 1)
      assert(r.usPerQuery > 0)
    }
    // full scan can't have lower accuracy than a 2-probe restriction of itself
    val usp = rows.find(_.method.startsWith("USP")).get
    assert(vanilla.accuracy >= usp.accuracy - 1e-9)
  }

  test("table5 at tiny scale yields one row per (dataset, method)") {
    val rows = Tables.table5(spark, n = 150, epochs = 20)
    assert(rows.length == 12)
    assert(rows.forall(r => r.ari >= -0.5 && r.ari <= 1.0))
    assert(rows.forall(r => r.accuracy >= 0 && r.accuracy <= 1.0))
    // K-means still nails the easy blobs even at tiny n
    assert(rows.find(r => r.dataset == "blobs4" && r.method == "K-Means").get.ari > 0.8)
  }

  test("fmtSweep prints one line per probe point") {
    val s = Tables.SweepResult("X", Seq(Sweep.Point(1, 10, 0.5), Sweep.Point(2, 20, 0.9)))
    val out = Tables.fmtSweep(s)
    assert(out.startsWith("X\n"))
    assert(out.linesIterator.size == 3)
  }
}
