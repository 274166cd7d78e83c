package repro.eval

import java.lang.Double.doubleToLongBits
import org.scalatest.funsuite.AnyFunSuite
import repro.SynthData
import repro.baselines.{BoostedForest, BspTree, CrossPolytopeLsh, KMeansPartitioner, NeuralLsh}
import repro.core.{CandidateIndex, Ensemble, EnsembleIndex, Hierarchical, KnnMatrix, ModelPartitioner,
  PartitionIndex, SpacePartitioner, UspConfig, UspTrainer}
import repro.linalg.Mat

/** The one-pass sweeps (`probeCounts` of each index kind) against the
  * per-depth `candidates` loop they replace, bit for bit; and batch
  * `binScores` against row-by-row `binScores` on every partitioner kind.
  */
class OnePassSweepSpec extends AnyFunSuite {

  // one draw from the mixture: 600 indexed points, then 1 000 held-out rows
  private lazy val all = SynthData.gaussianMixture(1600, 8, 4, seed = 71)
  private lazy val data = all.take(600)
  private lazy val block = all.drop(600)
  private lazy val queries = block.take(100)
  private lazy val knn = KnnMatrix.blockKnn(data, data, 10, excludeSelf = true)
  private lazy val gt = KnnMatrix.blockKnn(data, queries, 10, excludeSelf = false)
  private lazy val n = data.length

  private def usp(m: Int, seed: Long) = UspConfig(m = m, epochs = 2, batchSize = 128, hidden = 16, seed = seed)

  private lazy val uspModel = UspTrainer.train(data, knn, usp(8, 3))
  private lazy val hier = Hierarchical.train(data, knn, usp(16, 4), m2 = 4, leafEpochs = 1).partitioner
  private lazy val ensemble = Ensemble.train(data, knn, usp(8, 5), e = 3)

  private lazy val partitioners: Seq[(String, SpacePartitioner)] = Seq(
    "USP (ModelPartitioner)" -> new ModelPartitioner(uspModel.net, 8),
    "K-means" -> KMeansPartitioner.fitLocal(data, 8, iters = 10, seed = 6),
    "a PCA tree (BspTree)" -> BspTree.build(data, 3, BspTree.pca, seed = 1),
    "Neural LSH" -> NeuralLsh.train(data, knn, m = 8, hidden = 16, epochs = 2, batchSize = 128, seed = 9).partitioner,
    "cross-polytope LSH" -> new CrossPolytopeLsh(8, 8, seed = 5),
    "a 16x4 hierarchy" -> hier,
  )

  private lazy val indexes: Seq[(String, CandidateIndex)] =
    partitioners.map { case (name, p) => name -> PartitionIndex.build(p, data) } ++ Seq(
      "a 3-model EnsembleIndex" -> new EnsembleIndex(ensemble, data),
      "a BoostedForest" -> BoostedForest.fit(data, knn, depth = 3, numTrees = 3))

  private val kinds = Seq("USP (ModelPartitioner)", "K-means", "a PCA tree (BspTree)", "Neural LSH",
    "cross-polytope LSH", "a 16x4 hierarchy", "a 3-model EnsembleIndex", "a BoostedForest")

  private def index(name: String): CandidateIndex = indexes.find(_._1 == name).get._2

  /** The sweep as it was computed before `probeCounts`: for every depth
    * and query, the full candidate set, marked and unmarked id by id.
    */
  private def reference(index: CandidateIndex, queries: Array[Array[Double]], gt: Array[Array[Int]],
                        probes: Seq[Int]): Seq[Sweep.Point] = {
    val mark = new Array[Boolean](n)
    probes.map { probe =>
      var candSum = 0L
      var hits = 0L
      var total = 0L
      for (qi <- queries.indices) {
        val cand = index.candidates(queries(qi), probe)
        cand.foreach(mark(_) = true)
        gt(qi).foreach(g => if (mark(g)) hits += 1)
        total += gt(qi).length
        candSum += cand.length
        cand.foreach(mark(_) = false)
      }
      Sweep.Point(probe, candSum.toDouble / queries.length, hits.toDouble / total)
    }
  }

  private def bits(ps: Seq[Sweep.Point]): Seq[(Int, Long, Long)] =
    ps.map(p => (p.probe, doubleToLongBits(p.avgCand), doubleToLongBits(p.accuracy)))

  private val oddProbes = Seq(16, 1, 3, 3, 0, 40)

  for (kind <- kinds) {
    test(s"the one-pass sweep equals the per-depth candidates loop bit for bit on $kind") {
      val idx = index(kind)
      for (probes <- Seq((1 to 16) :+ 64, oddProbes)) {
        assert(bits(Sweep.run(idx, n, queries, gt, probes)) == bits(reference(idx, queries, gt, probes)),
          s"probes $probes")
      }
      // an empty query block: no candidates, no hits, 0/0 as before
      val none = Sweep.run(idx, n, Array.empty, Array.empty, oddProbes)
      assert(bits(none) == bits(reference(idx, Array.empty, Array.empty, oddProbes)))
    }

    test(s"probe depth 0 gives |C| = 0 and a depth above numBins gives |C| = n on $kind") {
      val pts = Sweep.run(index(kind), n, queries, gt, Seq(0, 1000))
      assert(pts.map(_.avgCand) == Seq(0.0, n.toDouble))
      assert(pts.map(_.accuracy) == Seq(0.0, 1.0))
    }
  }

  test("the 16x4 hierarchy has at least one empty bin") {
    assert(index("a 16x4 hierarchy").asInstanceOf[PartitionIndex].binSizes.contains(0))
  }

  for (kind <- Seq("USP (ModelPartitioner)", "a 16x4 hierarchy")) {
    test(s"accuracy never drops as m' grows on $kind") {
      val pts = Sweep.run(index(kind), n, queries, gt, 1 to 64)
      val acc = pts.map(_.accuracy)
      assert(acc == acc.sorted, acc.mkString(","))
      assert(acc.last == 1.0)
    }
  }

  for (kind <- kinds.take(6); rows <- Seq(0, 1, 63, 64, 65, 1000)) {
    test(s"batch binScores equals row-by-row binScores bit for bit on $kind at $rows rows") {
      val p = partitioners.find(_._1 == kind).get._2
      val vs = block.take(rows)
      val batch = p.binScores(if (rows == 0) Mat.zeros(0, 8) else Mat.fromRows(vs.toIndexedSeq))
      assert(batch.rows == rows && batch.cols == p.numBins)
      assert(batch.a.map(doubleToLongBits).toSeq == vs.flatMap(p.binScores).map(doubleToLongBits).toSeq)
    }
  }
}
