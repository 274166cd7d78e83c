package repro.core

import repro.{SparkSpec, SynthData}

class UspTrainerSpec extends SparkSpec {

  private lazy val data = SynthData.gaussianMixture(600, 8, 4, seed = 21)
  private lazy val knn = KnnMatrix.selfKnn(spark, data, 10)

  test("training reduces the loss substantially") {
    val cfg = UspConfig(m = 4, epochs = 25, batchSize = 128, eta = 4.0, hidden = 32, seed = 1)
    val model = UspTrainer.train(data, knn, cfg)
    val first = model.lossTrace.take(3).min
    val last = model.lossTrace.takeRight(3).min
    assert(last < first, s"loss did not decrease: first=$first last=$last")
  }

  test("learned partition is roughly balanced (within 2x of n/m)") {
    val cfg = UspConfig(m = 4, epochs = 30, batchSize = 128, eta = 6.0, hidden = 32, seed = 2)
    val model = UspTrainer.train(data, knn, cfg)
    val sizes = Array.fill(4)(0)
    model.assignments.foreach(b => sizes(b) += 1)
    val ideal = data.length / 4
    assert(sizes.forall(_ > 0), s"empty bin: ${sizes.toSeq}")
    assert(sizes.max <= ideal * 2, s"imbalanced: ${sizes.toSeq}")
  }

  test("learned partition keeps most kNN edges inside bins (quality objective)") {
    val cfg = UspConfig(m = 4, epochs = 30, batchSize = 128, eta = 4.0, hidden = 32, seed = 3)
    val model = UspTrainer.train(data, knn, cfg)
    var same = 0L; var total = 0L
    for (i <- data.indices; j <- knn(i)) {
      if (model.assignments(i) == model.assignments(j)) same += 1
      total += 1
    }
    val frac = same.toDouble / total
    assert(frac > 0.7, s"only $frac of neighbor edges preserved")
  }

  test("assignments field agrees with fresh inference through the net") {
    val cfg = UspConfig(m = 4, epochs = 10, batchSize = 128, hidden = 16, seed = 4)
    val model = UspTrainer.train(data, knn, cfg)
    assert(new ModelPartitioner(model.net, 4).assignAll(data).sameElements(model.assignments))
  }

  test("assignAll is invariant to how the rows are split") {
    val cfg = UspConfig(m = 3, epochs = 5, batchSize = 128, hidden = 16, seed = 5)
    val model = UspTrainer.train(data, knn, cfg)
    val mp = new ModelPartitioner(model.net, 3)
    val b = model.assignments
    // row-local: a row's bin does not depend on the other rows of its forward,
    // repeated rows included (training targets forward distinct neighbors only)
    val rng = new java.util.Random(55)
    val ids = Array.fill(300)(rng.nextInt(data.length))
    assert(ids.distinct.length < ids.length)
    assert(mp.assignAll(ids.map(data)).sameElements(ids.map(b)))
    // arbitrary contiguous splits, empty pieces included
    for (_ <- 0 until 5) {
      val cuts = (Array(0, data.length) ++ Array.fill(3)(rng.nextInt(data.length + 1))).sorted
      val pieces = cuts.sliding(2).flatMap(c => mp.assignAll(data.slice(c(0), c(1)))).toArray
      assert(pieces.sameElements(b), cuts.toSeq)
    }
  }

  test("logistic architecture (hidden=0) trains and yields valid assignments") {
    val cfg = UspConfig(m = 2, epochs = 20, batchSize = 128, eta = 2.0, hidden = 0, seed = 6)
    val model = UspTrainer.train(data, knn, cfg)
    assert(model.assignments.forall(b => b == 0 || b == 1))
    assert(model.assignments.distinct.length == 2, "logistic model collapsed to one bin")
  }

  test("training is deterministic in the seed") {
    val cfg = UspConfig(m = 4, epochs = 8, batchSize = 128, hidden = 16, seed = 7)
    val a = UspTrainer.train(data, knn, cfg)
    val b = UspTrainer.train(data, knn, cfg)
    assert(a.assignments.sameElements(b.assignments))
    assert(a.lossTrace.sameElements(b.lossTrace))
  }

  test("per-point weights steer the partition (weighted points get cleaner bins)") {
    // weight the first cluster's points 10x: their neighbor edges should be
    // preserved at least as well as under uniform weights
    val cfg = UspConfig(m = 4, epochs = 25, batchSize = 128, eta = 4.0, hidden = 32, seed = 8)
    val uniform = UspTrainer.train(data, knn, cfg)
    val w = Array.tabulate(data.length)(i => if (i < 150) 10.0 else 0.1)
    val weighted = UspTrainer.train(data, knn, cfg, weights = w)
    def cutOf(model: UspModel, range: Range): Double = {
      var cut = 0L; var tot = 0L
      for (i <- range; j <- knn(i)) {
        if (model.assignments(i) != model.assignments(j)) cut += 1
        tot += 1
      }
      cut.toDouble / tot
    }
    assert(cutOf(weighted, 0 until 150) <= cutOf(uniform, 0 until 150) + 0.05)
  }

  test("a NaN coordinate makes training fail loudly, not collapse to one bin") {
    val small = SynthData.gaussianMixture(200, 4, 3, seed = 23)
    val smallKnn = KnnMatrix.selfKnn(spark, small, 5)
    val poisoned = small.map(_.clone())
    poisoned(17)(2) = Double.NaN
    // hidden=0: the logits go NaN, so the loss does; hidden=8: ReLU zeroes the
    // NaNs of the poisoned BatchNorm, so only the weights show it
    for (hidden <- Seq(0, 8)) {
      val cfg = UspConfig(m = 4, epochs = 3, batchSize = 50, hidden = hidden, seed = 4)
      val e = intercept[IllegalStateException](UspTrainer.train(poisoned, smallKnn, cfg))
      assert(e.getMessage.contains("epoch 1 of 3"), e.getMessage)
    }
  }
}
