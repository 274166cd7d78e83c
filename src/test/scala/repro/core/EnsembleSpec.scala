package repro.core

import repro.{SparkSpec, SynthData}
import repro.eval.Sweep

class EnsembleSpec extends SparkSpec {

  private lazy val data = SynthData.gaussianMixture(500, 6, 4, seed = 41)
  private lazy val knn = KnnMatrix.selfKnn(spark, data, 10)
  private lazy val cfg = UspConfig(m = 4, epochs = 20, batchSize = 128, eta = 4.0,
    hidden = 24, seed = 42)

  test("nextWeights counts cut neighbor edges and multiplies previous weights") {
    val knnSmall = Array(Array(1, 2), Array(0, 2), Array(0, 1))
    val asg = Array(0, 0, 1) // point 0: 1 cut edge; point 1: 1 cut; point 2: 2 cut
    val w = Ensemble.nextWeights(Array(1.0, 1.0, 2.0), knnSmall, asg)
    // raw: (1, 1, 4); mean 2 → normalized (0.5, 0.5, 2.0)
    assert(w.toSeq == Seq(0.5, 0.5, 2.0))
  }

  test("nextWeights resets to uniform when the partition is perfect") {
    val knnSmall = Array(Array(1), Array(0))
    val w = Ensemble.nextWeights(Array(3.0, 5.0), knnSmall, Array(0, 0))
    assert(w.toSeq == Seq(1.0, 1.0))
  }

  test("nextWeights keeps weight mean at 1") {
    val rng = new java.util.Random(1)
    val knnSmall = Array.fill(50)(Array.fill(4)(rng.nextInt(50)))
    val asg = Array.fill(50)(rng.nextInt(3))
    val w = Ensemble.nextWeights(Array.fill(50)(1.0), knnSmall, asg)
    assert(math.abs(w.sum / 50 - 1.0) < 1e-9)
  }

  test("ensemble trains e distinct models with distinct partitions") {
    val trained = Ensemble.train(data, knn, cfg, e = 3)
    assert(trained.models.length == 3 && trained.indexes.length == 3)
    // later models focus on different points, so partitions should differ
    val a01 = trained.models(0).assignments.zip(trained.models(1).assignments)
      .count { case (x, y) => x == y }
    assert(a01 < data.length, "models 0 and 1 produced identical partitions")
  }

  test("ensemble candidate sets are valid dataset ids") {
    val trained = Ensemble.train(data, knn, cfg, e = 2)
    val idx = new EnsembleIndex(trained, data)
    val q = SynthData.gaussianMixture(5, 6, 4, seed = 43)
    q.foreach { qv =>
      val c = idx.candidates(qv, 1)
      assert(c.nonEmpty && c.forall(i => i >= 0 && i < data.length))
      assert(c.distinct.length == c.length)
    }
  }

  test("the batched calibration equals a row-by-row reference bit for bit") {
    val trained = Ensemble.train(data, knn, cfg.copy(epochs = 3), e = 2)
    val calibData = data ++ data.take(100) // more than the 500-row sample
    val idx = new EnsembleIndex(trained, calibData)
    val sample = calibData.take(500)
    val reference = trained.indexes.map { part =>
      val sorted = sample.map(v => part.partitioner.binScores(v).sorted)
      Array.tabulate(cfg.m + 1)(p => sorted.map(_.takeRight(p).sum).sum / sample.length)
    }
    def bits(c: Seq[Array[Double]]) = c.map(_.toSeq.map(java.lang.Double.doubleToLongBits))
    assert(bits(idx.calib.toSeq) == bits(reference))
  }

  test("ensemble accuracy at fixed probe depth is at least the first model's") {
    val queries = SynthData.gaussianMixture(60, 6, 4, seed = 44)
    val gt = KnnMatrix.queryKnn(spark, data, queries, 10)
    val trained = Ensemble.train(data, knn, cfg, e = 3)
    val single = Sweep.run(trained.indexes.head, data.length, queries, gt, Seq(1, 2))
    val ens = Sweep.run(new EnsembleIndex(trained, data), data.length, queries, gt, Seq(1, 2))
    // Algorithm 4 picks the most confident member per query; with
    // complementary partitions this should not hurt accuracy materially.
    assert(ens.head.accuracy >= single.head.accuracy - 0.05,
      s"ensemble ${ens.head.accuracy} vs single ${single.head.accuracy}")
  }
}
