package repro.core

import repro.{SparkSpec, SynthData}

class HierarchicalSpec extends SparkSpec {

  private lazy val data = SynthData.gaussianMixture(600, 6, 8, seed = 51)
  private lazy val knn = KnnMatrix.selfKnn(spark, data, 8)
  private lazy val trained = Hierarchical.train(data, knn,
    UspConfig(m = 4, kPrime = 8, epochs = 15, batchSize = 128, eta = 4.0, hidden = 24, seed = 52),
    m2 = 4, leafEpochs = 10)

  test("localKnn matches naive nearest neighbors on a subset") {
    val subset = data.take(50)
    val local = Hierarchical.localKnn(subset, 5)
    for (i <- subset.indices) {
      val want = subset.indices.filter(_ != i)
        .sortBy(j => KnnMatrix.sqDist(subset(j), subset(i))).take(5)
      assert(local(i).toSeq == want)
    }
  }

  test("localKnn caps k at subset size - 1") {
    val subset = data.take(4)
    val local = Hierarchical.localKnn(subset, 10)
    assert(local.forall(_.length == 3))
  }

  test("hierarchy trains one leaf per root bin and exposes m1*m2 bins") {
    assert(trained.leaves.length == 4)
    assert(trained.partitioner.numBins == 16)
  }

  test("assign produces bins consistent with root*m2+leaf encoding") {
    // leaf b was trained on root bin b's points in dataset order, so the
    // r-th point of root bin b has leaf assignment leaves(b).assignments(r)
    val rank = new Array[Int](4)
    for (i <- data.indices) {
      val rootBin = trained.root.assignments(i)
      val leafBin = trained.leaves(rootBin).assignments(rank(rootBin))
      rank(rootBin) += 1
      assert(trained.partitioner.assign(data(i)) == rootBin * 4 + leafBin, s"point $i")
    }
    assert(rank.toSeq == trained.leaves.map(_.assignments.length).toSeq)
  }

  test("binScores is a distribution over all leaf bins") {
    val q = SynthData.gaussianMixture(3, 6, 8, seed = 53)
    q.foreach { qv =>
      val p = trained.partitioner.binScores(qv)
      assert(p.length == 16)
      assert(math.abs(p.sum - 1.0) < 1e-6, s"sum=${p.sum}")
      assert(p.forall(_ >= 0))
    }
  }

  test("probeOrder is a permutation ranked by combined probability") {
    val q = data(7)
    val order = trained.partitioner.probeOrder(q)
    assert(order.sorted.toSeq == (0 until 16).toSeq)
    val p = trained.partitioner.binScores(q)
    for (i <- 0 until 15)
      assert(p(order(i)) >= p(order(i + 1)) - 1e-12)
  }

  test("hierarchical index partitions the whole dataset with no empty majority") {
    val index = PartitionIndex.build(trained.partitioner, data)
    assert(index.lookup.map(_.length).sum == data.length)
    val nonEmpty = index.binSizes.count(_ > 0)
    assert(nonEmpty >= 8, s"only $nonEmpty of 16 bins used")
  }

  test("degenerate tiny root bins still yield a working partitioner") {
    // force tiny data so some root bins end up nearly empty
    val tiny = SynthData.gaussianMixture(40, 4, 2, seed = 54)
    val tinyKnn = KnnMatrix.selfKnn(spark, tiny, 5)
    val t = Hierarchical.train(tiny, tinyKnn,
      UspConfig(m = 8, kPrime = 5, epochs = 5, batchSize = 20, hidden = 8, seed = 55),
      m2 = 2, leafEpochs = 3)
    tiny.foreach { v =>
      val b = t.partitioner.assign(v)
      assert(b >= 0 && b < 16)
    }
  }
}
