package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.SynthData
import repro.core.Hierarchical.localKnn

class GraphPartitionerSpec extends AnyFunSuite {

  test("symmetrize makes the adjacency symmetric and irreflexive") {
    val knn = Array(Array(1, 2), Array(2), Array(0))
    val adj = GraphPartitioner.symmetrize(knn)
    for (i <- adj.indices; j <- adj(i)) {
      assert(adj(j).contains(i), s"edge $i->$j not symmetric")
      assert(j != i)
    }
    // 0->1 implies 1 contains 0
    assert(adj(1).contains(0))
  }

  test("partition respects the (1+eps) balance cap") {
    val data = SynthData.gaussianMixture(400, 4, 5, seed = 71)
    val adj = GraphPartitioner.symmetrize(localKnn(data, 8))
    val m = 5
    val eps = 0.05
    val bins = GraphPartitioner.partition(adj, m, eps = eps, seed = 1)
    val cap = math.ceil((1 + eps) * 400.0 / m).toInt
    val sizes = Array.fill(m)(0)
    bins.foreach(b => sizes(b) += 1)
    assert(sizes.forall(_ <= cap), s"sizes ${sizes.toSeq} exceed cap $cap")
    assert(sizes.forall(_ > 0))
  }

  test("every node gets a valid bin") {
    val data = SynthData.gaussianMixture(200, 3, 3, seed = 72)
    val adj = GraphPartitioner.symmetrize(localKnn(data, 5))
    val bins = GraphPartitioner.partition(adj, 4, seed = 2)
    assert(bins.forall(b => b >= 0 && b < 4))
  }

  test("refinement reduces (or keeps) the edge cut versus no refinement") {
    val data = SynthData.gaussianMixture(400, 4, 8, seed = 73)
    val adj = GraphPartitioner.symmetrize(localKnn(data, 8))
    val noRefine = GraphPartitioner.partition(adj, 8, seed = 3, refinePasses = 0)
    val refined = GraphPartitioner.partition(adj, 8, seed = 3, refinePasses = 8)
    assert(GraphPartitioner.edgeCut(adj, refined) <= GraphPartitioner.edgeCut(adj, noRefine))
  }

  test("on well-separated blobs the partition cuts almost no neighbor edges") {
    val rng = new java.util.Random(74)
    val data = Array.tabulate(300) { i =>
      val c = i % 3
      Array(c * 100.0 + rng.nextGaussian(), c * 100.0 + rng.nextGaussian())
    }
    val adj = GraphPartitioner.symmetrize(localKnn(data, 6))
    val bins = GraphPartitioner.partition(adj, 3, seed = 4)
    val cut = GraphPartitioner.edgeCut(adj, bins)
    val totalEdges = adj.map(_.length).sum / 2
    assert(cut.toDouble / totalEdges < 0.05,
      s"cut $cut of $totalEdges edges on trivially separable blobs")
  }

  test("edgeCut counts each crossing undirected edge once") {
    val adj = Array(Array(1, 2), Array(0), Array(0))
    assert(GraphPartitioner.edgeCut(adj, Array(0, 0, 1)) == 1L)
    assert(GraphPartitioner.edgeCut(adj, Array(0, 1, 1)) == 2L)
    assert(GraphPartitioner.edgeCut(adj, Array(0, 0, 0)) == 0L)
  }

  test("partitioning is deterministic in the seed") {
    val data = SynthData.gaussianMixture(150, 3, 3, seed = 75)
    val adj = GraphPartitioner.symmetrize(localKnn(data, 5))
    val a = GraphPartitioner.partition(adj, 4, seed = 9)
    val b = GraphPartitioner.partition(adj, 4, seed = 9)
    assert(a.sameElements(b))
  }

  test("multilevel partitioner respects the balance cap and bin range") {
    val data = SynthData.siftLite(2000, seed = 76)
    val adj = GraphPartitioner.symmetrize(localKnn(data, 10))
    val m = 8
    val bins = GraphPartitioner.partitionMultilevel(adj, m, eps = 0.05, seed = 3)
    assert(bins.forall(b => b >= 0 && b < m))
    val cap = math.ceil(1.05 * 2000.0 / m).toInt
    val sizes = Array.fill(m)(0)
    bins.foreach(sizes(_) += 1)
    assert(sizes.forall(_ <= cap), s"sizes ${sizes.toSeq} exceed cap $cap")
    assert(sizes.forall(_ > 0))
  }

  test("multilevel cuts at most as much as flat growth on clustered data") {
    val data = SynthData.siftLite(2000, seed = 77)
    val adj = GraphPartitioner.symmetrize(localKnn(data, 10))
    val flat = GraphPartitioner.partition(adj, 8, seed = 4)
    val ml = GraphPartitioner.partitionMultilevel(adj, 8, seed = 4)
    assert(GraphPartitioner.edgeCut(adj, ml) <= GraphPartitioner.edgeCut(adj, flat),
      "multilevel must not cut more than flat growth")
  }

  test("multilevel is deterministic in the seed") {
    val data = SynthData.gaussianMixture(400, 4, 4, seed = 78)
    val adj = GraphPartitioner.symmetrize(localKnn(data, 6))
    val a = GraphPartitioner.partitionMultilevel(adj, 4, seed = 5)
    val b = GraphPartitioner.partitionMultilevel(adj, 4, seed = 5)
    assert(a.sameElements(b))
  }
}
