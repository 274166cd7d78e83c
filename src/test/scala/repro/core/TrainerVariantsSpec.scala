package repro.core

import repro.{SparkSpec, SynthData}
import repro.eval.Tables
import repro.nn.Net

/** Coverage for the trainer's neighbor preservation, the two-block MLP and
  * the clustering merge helper built on top of the fine partitions.
  */
class TrainerVariantsSpec extends SparkSpec {

  private lazy val data = SynthData.gaussianMixture(500, 6, 4, seed = 131)
  private lazy val knn = KnnMatrix.selfKnn(spark, data, 8)

  test("training preserves most k'-NN edges within a bin") {
    val cfg = UspConfig(m = 4, kPrime = 8, eta = 4.0, epochs = 30, batchSize = 128,
      lr = 3e-3, hidden = 32, seed = 2)
    val model = UspTrainer.train(data, knn, cfg)
    var same = 0L; var tot = 0L
    for (i <- data.indices; j <- knn(i)) {
      if (model.assignments(i) == model.assignments(j)) same += 1
      tot += 1
    }
    val preserved = same.toDouble / tot
    assert(preserved > 0.7, s"preserved=$preserved")
  }

  test("mlp2 gradient check (CE loss, finite differences)") {
    val net = Net.mlp2(4, 6, 3, seed = 5, dropout = 0.0)
    val rng = new java.util.Random(6)
    val x = repro.linalg.Mat(10, 4)((_, _) => rng.nextGaussian())
    val y = Array.tabulate(10)(_ % 3)
    def loss(): Double = {
      val p = Net.softmaxRows(net.forward(x))
      (0 until 10).map(i => -math.log(p(i, y(i)) + 1e-12)).sum
    }
    // analytic gradient
    val p = Net.softmaxRows(net.forward(x))
    val dz = repro.linalg.Mat(10, 3)((i, j) => p(i, j) - (if (j == y(i)) 1.0 else 0.0))
    net.zeroGrad(); net.backward(dz)
    val analytic = net.params.map(_.g.copy())
    val eps = 1e-5
    for ((param, pi) <- net.params.zipWithIndex; _ <- 0 until 4) {
      val k = rng.nextInt(param.v.a.length)
      val orig = param.v.a(k)
      param.v.a(k) = orig + eps; val lp = loss()
      param.v.a(k) = orig - eps; val lm = loss()
      param.v.a(k) = orig
      val num = (lp - lm) / (2 * eps)
      assert(math.abs(num - analytic(pi).a(k)) < 1e-3 * math.max(1.0, math.abs(num)),
        s"param $pi entry $k: numeric=$num analytic=${analytic(pi).a(k)}")
    }
  }

  test("uspClusterFromFine merges connected fine bins and never bridges disconnected groups") {
    // two far blobs, fine partition = 4 bins (2 per blob)
    val rng = new java.util.Random(7)
    val pts = Array.tabulate(200) { i =>
      val off = if (i < 100) 0.0 else 1000.0
      Array(off + rng.nextGaussian(), rng.nextGaussian())
    }
    val knnB = Hierarchical.localKnn(pts, 8)
    // fine bins: split each blob in half arbitrarily
    val fine = Array.tabulate(200)(i => (if (i < 100) 0 else 2) + i % 2)
    val merged = Tables.uspClusterFromFine(pts, knnB, 2, fine, 4)
    assert(merged.distinct.length == 2)
    // all of blob A in one group, all of blob B in the other
    assert(merged.take(100).distinct.length == 1)
    assert(merged.drop(100).distinct.length == 1)
    assert(merged(0) != merged(150))
  }

  test("uspClusterFromFine handles empty fine bins") {
    val rng = new java.util.Random(8)
    val pts = Array.fill(50)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val knnB = Hierarchical.localKnn(pts, 5)
    val fine = Array.fill(50)(0) // only bin 0 of 8 used
    val merged = Tables.uspClusterFromFine(pts, knnB, 1, fine, 8)
    assert(merged.forall(_ == 0))
  }

  test("uspCluster end-to-end recovers two separated blobs") {
    val rng = new java.util.Random(9)
    val pts = Array.tabulate(300) { i =>
      val off = if (i % 2 == 0) -8.0 else 8.0
      Array(off + rng.nextGaussian(), rng.nextGaussian())
    }
    val knnB = Hierarchical.localKnn(pts, 10)
    val labels = Tables.uspCluster(pts, knnB, k = 2, epochs = 60)
    val truth = Array.tabulate(300)(_ % 2)
    assert(repro.cluster.ClusterMetrics.ari(labels, truth) > 0.95)
  }
}
