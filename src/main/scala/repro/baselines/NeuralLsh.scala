package repro.baselines

import repro.core.{SpacePartitioner, ModelPartitioner}
import repro.linalg.Mat
import repro.nn.Net
import java.util.Random

/** Neural LSH (Dong et al., ICLR 2020) — the paper's main comparator.
  *
  * The pipeline the paper describes (§2.3): (1) build the k-NN graph,
  * (2) run a balanced combinatorial graph partitioner to obtain bin labels
  * — this is the expensive supervised preprocessing USP eliminates —
  * (3) train a neural network with plain cross-entropy to classify points
  * into those fixed bins; multiprobe by the classifier's softmax ranking.
  * Our balanced partitioner is [[GraphPartitioner]] (KaHIP substitute).
  */
object NeuralLsh {

  final case class Trained(labels: Array[Int], partitioner: ModelPartitioner,
                           lossTrace: Array[Double])

  /** Supervised CE training on graph-partition labels.
    *
    * @param hidden hidden width — the paper's Neural LSH uses 512 (Table 2);
    *               `hidden <= 0` gives the logistic "Regression LSH" variant.
    */
  def train(data: Array[Array[Double]], knn: Array[Array[Int]], m: Int,
            hidden: Int = 512, epochs: Int = 40, batchSize: Int = 512,
            lr: Double = 1e-2, seed: Long = 9): Trained = {
    val adj = GraphPartitioner.symmetrize(knn)
    // KaHIP-quality labels: keep the lower cut of the multilevel partition
    // (the faithful substitute) and flat region growth. Each wins somewhere:
    // flat cuts 51-54 edges against 209-349 on NeuralLshSpec's n=400, m=4
    // fixture; multilevel 3 856 against 10 385 at Table 4's n=20 000, m=16.
    val grown = GraphPartitioner.partition(adj, m, seed = seed)
    val ml = GraphPartitioner.partitionMultilevel(adj, m, seed = seed)
    val labels =
      if (GraphPartitioner.edgeCut(adj, ml) < GraphPartitioner.edgeCut(adj, grown)) ml
      else grown
    val net = trainClassifier(data, labels, m, hidden, epochs, batchSize, lr, seed)
    Trained(labels, new ModelPartitioner(net._1, m), net._2)
  }

  /** Plain softmax-CE classifier training (shared with Regression LSH). */
  def trainClassifier(data: Array[Array[Double]], labels: Array[Int], m: Int,
                      hidden: Int, epochs: Int, batchSize: Int, lr: Double,
                      seed: Long): (Net, Array[Double]) = {
    val d = data(0).length
    val net = if (hidden <= 0) Net.logistic(d, m, seed) else Net.mlp(d, hidden, m, seed)
    val x = Mat.fromRows(data.toIndexedSeq)
    val fit = net.fit(x, epochs, batchSize, lr, new Random(seed ^ 0xabc)) { b => probs =>
      // CE vs one-hot labels; d(logits) = (p - y)/batch
      val dz = Mat.zeros(b.length, m)
      var loss = 0.0
      var r = 0
      while (r < b.length) {
        val y = labels(b(r))
        loss -= math.log(probs(r, y) + 1e-12)
        var j = 0
        while (j < m) {
          dz(r, j) = (probs(r, j) - (if (j == y) 1.0 else 0.0)) / b.length
          j += 1
        }
        r += 1
      }
      (loss / b.length, dz)
    }
    (net, fit.lossTrace)
  }
}

/** Cross-polytope LSH (Andoni et al. [3]) — the data-oblivious baseline of
  * Figure 5. The input is passed through a random rotation (a random
  * orthonormal map onto m/2 coordinates) and hashed to the closest signed
  * basis vector: bin = argmax_i |y_i| with the sign deciding between the
  * (i,+) and (i,−) polytope vertices, giving m = 2·(m/2) bins. Multiprobe
  * ranks vertices by their signed coordinate value.
  */
final class CrossPolytopeLsh(d: Int, val numBins: Int, seed: Long) extends SpacePartitioner {
  require(numBins % 2 == 0, "cross-polytope bins come in ± pairs")
  private val half = numBins / 2
  require(half <= d, s"m/2=$half must be <= d=$d")

  // Random orthonormal rows via Gram-Schmidt on Gaussian vectors.
  private val rot: Array[Array[Double]] = {
    val rng = new Random(seed)
    val rows = Array.fill(half)(Array.fill(d)(rng.nextGaussian()))
    var i = 0
    while (i < half) {
      var j = 0
      while (j < i) {
        var dot = 0.0
        var t = 0
        while (t < d) { dot += rows(i)(t) * rows(j)(t); t += 1 }
        t = 0
        while (t < d) { rows(i)(t) -= dot * rows(j)(t); t += 1 }
        j += 1
      }
      var nrm = 0.0
      var t = 0
      while (t < d) { nrm += rows(i)(t) * rows(i)(t); t += 1 }
      nrm = math.sqrt(nrm)
      t = 0
      while (t < d) { rows(i)(t) /= nrm; t += 1 }
      i += 1
    }
    rows
  }

  /** Vertex (i,+) scores y_i and vertex (i,−) scores −y_i, so the best
    * vertex is the one closest to the rotated point.
    */
  override def binScores(q: Array[Double]): Array[Double] = {
    val y = rot.map(BspTree.dot(_, q))
    Array.tabulate(numBins)(b => if (b % 2 == 0) y(b / 2) else -y(b / 2))
  }
}
