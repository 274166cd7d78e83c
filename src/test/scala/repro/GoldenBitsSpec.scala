package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.NeuralLsh
import repro.core.{CandidateIndex, Ensemble, EnsembleIndex, Hierarchical, KnnMatrix, UspConfig, UspTrainer}
import repro.eval.Sweep
import repro.linalg.Mat
import repro.nn.Net

/** Pins the exact bits of small fixed-seed training runs: the loss trace as
  * `doubleToLongBits`, a hash of the assignments and a hash of the bits of
  * every inference probability. The values were recorded before the
  * training-step kernels were rewritten (batched inference, transpose-free
  * backward, the LCG dropout draws, the selected balance window); any
  * change of floating-point order in those paths fails here. The sweep
  * curves were recorded before the sweeps were computed in one pass.
  */
class GoldenBitsSpec extends AnyFunSuite {

  private lazy val data = SynthData.gaussianMixture(600, 8, 4, seed = 21)
  private lazy val knn = KnnMatrix.blockKnn(data, data, 10, excludeSelf = true)
  private lazy val x = Mat.fromRows(data.toIndexedSeq)

  // held out from the same draw as `data`
  private lazy val queries = SynthData.gaussianMixture(700, 8, 4, seed = 21).drop(600)
  private lazy val gt = KnnMatrix.blockKnn(data, queries, 10, excludeSelf = false)
  private lazy val ensemble =
    Ensemble.train(data, knn, UspConfig(m = 8, epochs = 2, batchSize = 128, hidden = 16, seed = 11), e = 3)

  /** avgCand and accuracy bits of the sweep at m' = 1..8, depth by depth. */
  private def curve(index: CandidateIndex): Seq[Long] =
    Sweep.run(index, data.length, queries, gt, 1 to 8).flatMap(p => bits(Array(p.avgCand, p.accuracy)))

  private def bits(trace: Array[Double]): Seq[Long] = trace.toSeq.map(java.lang.Double.doubleToLongBits)
  private def hash(a: Array[Int]): Int = java.util.Arrays.hashCode(a)
  private def hash(a: Array[Double]): Int = java.util.Arrays.hashCode(a)

  test("USP training (MLP with dropout) repeats its recorded bits") {
    // batch 128 with m = 4: windows of 32, and a last batch of 88 (window 22)
    val model = UspTrainer.train(data, knn, UspConfig(m = 4, epochs = 3, batchSize = 128, hidden = 16, seed = 7))
    assert(bits(model.lossTrace) == Seq(-4610823113648053872L, -4610549294036656055L, -4610235018441509990L))
    assert(hash(model.assignments) == -496154148)
    assert(hash(model.net.predictProbs(x).a) == 1759147110)
  }

  test("USP training of a logistic model repeats its recorded bits") {
    val model = UspTrainer.train(data, knn, UspConfig(m = 5, epochs = 3, batchSize = 100, hidden = 0, seed = 8))
    assert(bits(model.lossTrace) == Seq(-4606564958400279061L, -4606445313868812504L, -4606249694323063217L))
    assert(hash(model.assignments) == 1117592558)
    assert(hash(model.net.predictProbs(x).a) == -1611360157)
  }

  test("USP training of a two-block MLP repeats its recorded bits") {
    val cfg = UspConfig(m = 4, epochs = 2, batchSize = 96, hidden = 12, seed = 9)
    val model = UspTrainer.train(data, knn, cfg, netIn = Net.mlp2(8, 12, 4, seed = 9))
    assert(bits(model.lossTrace) == Seq(-4611541766596615767L, -4610927903965606242L))
    assert(hash(model.assignments) == 647157933)
    assert(hash(model.net.predictProbs(x).a) == -1500871024)
  }

  test("Neural LSH training repeats its recorded bits") {
    val t = NeuralLsh.train(data, knn, m = 4, hidden = 32, epochs = 3, batchSize = 128, seed = 9)
    assert(bits(t.lossTrace) == Seq(4606616556187625677L, 4596824295067059293L, 4589228201924654347L))
    assert(hash(t.partitioner.assignAll(data)) == -753278459)
    // one-row inference, as a query runs it
    assert(hash(data.flatMap(t.partitioner.binScores)) == 1051699066)
  }

  test("a hierarchy's assignments repeat their recorded bits") {
    val t = Hierarchical.train(data, knn, UspConfig(m = 4, epochs = 2, batchSize = 128, hidden = 16, seed = 10),
      m2 = 3, leafEpochs = 2)
    assert(hash(t.partitioner.assignAll(data)) == 1631229666)
    assert(hash(data.flatMap(t.partitioner.binScores)) == 1934341105)
  }

  test("a USP index's sweep curve repeats its recorded bits") {
    assert(curve(ensemble.indexes.head) == Seq(
      4641297185977348915L, 4606119569287957971L, 4643017349928771912L, 4607038303611941552L,
      4644264635919321006L, 4607182418800017408L, 4645077043070852137L, 4607182418800017408L,
      4646151046028863734L, 4607182418800017408L, 4647017109347830333L, 4607182418800017408L,
      4647423137001735455L, 4607182418800017408L, 4648488871632306176L, 4607182418800017408L))
  }

  test("a 3-model EnsembleIndex's sweep curve repeats its recorded bits") {
    assert(curve(new EnsembleIndex(ensemble, data)) == Seq(
      4642624692336260547L, 4606894188423865696L, 4643523477121269760L, 4607119368405234221L,
      4645062265634574828L, 4607182418800017408L, 4645502949894987448L, 4607182418800017408L,
      4646666673001825567L, 4607182418800017408L, 4646822539770179092L, 4607182418800017408L,
      4647847196646336102L, 4607182418800017408L, 4648488871632306176L, 4607182418800017408L))
  }
}
