package repro.baselines

import repro.core.{CandidateIndex, Hierarchical, PartitionIndex, SpacePartitioner, UspConfig, UspTrainer}
import repro.nn.{Linear, Net}
import java.util.Random

/** Binary space-partitioning trees over hyperplane splits — the baseline
  * family of §5.4.2 (Figure 6): PCA trees, random-projection trees,
  * 2-means trees, learned KD-trees, Regression LSH, and our logistic
  * USP tree. A depth-D tree yields 2^D bins; every method differs only in
  * its split rule, so they share this implementation.
  */
sealed trait BspNode extends Serializable
final case class BspLeaf(bin: Int) extends BspNode
final case class BspSplit(w: Array[Double], t: Double, scale: Double,
                          left: BspNode, right: BspNode) extends BspNode

/** A built tree. A leaf's score is the log of the product of per-node
  * sigmoid margins on its path — the soft version of the hard descent that
  * `assign` does, which is how multiprobe works for every hyperplane method
  * here.
  */
final class BspTree(val root: BspNode, val numBins: Int) extends SpacePartitioner {

  override def assign(v: Array[Double]): Int = {
    var node = root
    while (true) {
      node match {
        case BspLeaf(b) => return b
        case BspSplit(w, t, _, l, r) =>
          node = if (BspTree.dot(w, v) >= t) r else l
      }
    }
    -1 // unreachable
  }

  override def binScores(q: Array[Double]): Array[Double] = {
    val scores = new Array[Double](numBins)
    java.util.Arrays.fill(scores, Double.NegativeInfinity)
    def walk(node: BspNode, logp: Double): Unit = node match {
      case BspLeaf(b) => scores(b) = logp
      case BspSplit(w, t, s, l, r) =>
        val margin = (BspTree.dot(w, q) - t) / math.max(s, 1e-9)
        val pr = 1.0 / (1.0 + math.exp(-margin)) // P(right)
        walk(r, logp + math.log(pr + 1e-12))
        walk(l, logp + math.log(1 - pr + 1e-12))
    }
    walk(root, 0.0)
    scores
  }
}

object BspTree {

  @inline def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** A split rule maps a node's subset of points to a hyperplane (w, t). */
  type SplitRule = (Array[Array[Double]], Random) => (Array[Double], Double)

  /** Build a depth-`depth` tree over `data` with the given rule. Leaf bins
    * are numbered in left-to-right order (always 2^depth bins; empty
    * subtrees keep their bin numbers so all methods are comparable at equal
    * bin counts, as in the paper's experiments).
    */
  def build(data: Array[Array[Double]], depth: Int, rule: SplitRule,
            seed: Long = 21): BspTree = {
    val rng = new Random(seed)
    val d = data(0).length
    var nextBin = 0
    def grow(idx: Array[Int], level: Int): BspNode = {
      if (level == depth) { val b = nextBin; nextBin += 1; BspLeaf(b) }
      else if (idx.length < 2) {
        // Too few points to split: still produce both subtrees for stable
        // bin numbering; the hyperplane is arbitrary.
        val w = Array.tabulate(d)(i => if (i == 0) 1.0 else 0.0)
        BspSplit(w, 0.0, 1.0, grow(idx, level + 1), grow(idx, level + 1))
      } else {
        val subset = idx.map(data)
        val (w, t) = rule(subset, rng)
        val projections = subset.map(dot(w, _))
        val scale = {
          val mean = projections.sum / projections.length
          val mad = projections.map(p => math.abs(p - mean)).sum / projections.length
          math.max(mad, 1e-6)
        }
        val (l, r) = idx.partition(i => dot(w, data(i)) < t)
        BspSplit(w, t, scale, grow(l, level + 1), grow(r, level + 1))
      }
    }
    val tree = grow(Array.tabulate(data.length)(identity), 0)
    new BspTree(tree, 1 << depth)
  }

  private def median(xs: Array[Double]): Double = {
    val s = xs.sorted
    s(s.length / 2)
  }

  /** Learned KD-tree stand-in: split the max-variance coordinate at its
    * median (the data-adaptive axis choice is the "learned" part of [7]).
    */
  val kd: SplitRule = (subset, _) => {
    val d = subset(0).length
    val n = subset.length
    var bestAxis = 0
    var bestVar = -1.0
    var j = 0
    while (j < d) {
      var s = 0.0; var s2 = 0.0
      subset.foreach { v => s += v(j); s2 += v(j) * v(j) }
      val varr = s2 / n - (s / n) * (s / n)
      if (varr > bestVar) { bestVar = varr; bestAxis = j }
      j += 1
    }
    val w = Array.tabulate(d)(i => if (i == bestAxis) 1.0 else 0.0)
    (w, median(subset.map(_(bestAxis))))
  }

  /** PCA tree: top principal component (power iteration), median split. */
  val pca: SplitRule = (subset, rng) => {
    val d = subset(0).length
    val n = subset.length
    val mean = new Array[Double](d)
    subset.foreach { v => var j = 0; while (j < d) { mean(j) += v(j); j += 1 } }
    var j = 0
    while (j < d) { mean(j) /= n; j += 1 }
    // power iteration on the covariance without materialising it:
    // Cw = (1/n) Σ (v−μ) ((v−μ)·w)
    var w = Array.fill(d)(rng.nextGaussian())
    var it = 0
    while (it < 30) {
      val nw = new Array[Double](d)
      subset.foreach { v =>
        var proj = 0.0
        var t = 0
        while (t < d) { proj += (v(t) - mean(t)) * w(t); t += 1 }
        t = 0
        while (t < d) { nw(t) += (v(t) - mean(t)) * proj; t += 1 }
      }
      val nrm = math.sqrt(nw.map(x => x * x).sum)
      if (nrm > 0) { var t = 0; while (t < d) { nw(t) /= nrm; t += 1 } }
      w = nw
      it += 1
    }
    (w, median(subset.map(dot(w, _))))
  }

  /** Random-projection tree: random unit direction, median split. */
  val rp: SplitRule = (subset, rng) => {
    val d = subset(0).length
    val w = Array.fill(d)(rng.nextGaussian())
    val nrm = math.sqrt(w.map(x => x * x).sum)
    var j = 0
    while (j < d) { w(j) /= nrm; j += 1 }
    (w, median(subset.map(dot(w, _))))
  }

  /** 2-means tree: hyperplane = perpendicular bisector of the 2 centroids. */
  val twoMeans: SplitRule = (subset, rng) => {
    val km = KMeansPartitioner.fitLocal(subset, 2, iters = 15, seed = rng.nextLong())
    val c0 = km.centroids(0); val c1 = km.centroids(1)
    val w = Array.tabulate(c0.length)(j => c1(j) - c0(j))
    val mid = Array.tabulate(c0.length)(j => (c0(j) + c1(j)) / 2)
    (w, dot(w, mid))
  }

  /** Regression LSH (Neural LSH's logistic variant): balanced bipartition
    * of the node's k-NN graph, then a logistic regression trained to
    * classify the two sides; the split is its decision hyperplane.
    */
  def regressionLsh(kPrime: Int = 10, epochs: Int = 30): SplitRule = (subset, rng) => {
    val knn = Hierarchical.localKnn(subset, kPrime)
    val adj = GraphPartitioner.symmetrize(knn)
    val labels = GraphPartitioner.partition(adj, 2, seed = rng.nextLong())
    val (net, _) = NeuralLsh.trainClassifier(subset, labels, m = 2, hidden = 0,
      epochs = epochs, batchSize = math.min(256, subset.length), lr = 5e-2, seed = rng.nextLong())
    hyperplaneOf(net)
  }

  /** Our method with a logistic learner (§5.4.2): the node's hyperplane is
    * learned end-to-end with the unsupervised USP loss (m = 2).
    */
  def uspLogistic(kPrime: Int = 10, eta: Double = 2.0, epochs: Int = 30): SplitRule =
    (subset, rng) => {
      val knn = Hierarchical.localKnn(subset, kPrime)
      val cfg = UspConfig(m = 2, kPrime = math.min(kPrime, subset.length - 1), eta = eta,
        epochs = epochs, batchSize = math.min(256, subset.length),
        lr = 1e-2, hidden = 0, seed = rng.nextLong())
      val model = UspTrainer.train(subset, knn, cfg)
      hyperplaneOf(model.net)
    }

  /** Decision hyperplane of a 2-logit linear model: z1−z0 = w·x − t. */
  def hyperplaneOf(net: Net): (Array[Double], Double) = {
    val lin = net.layers.collectFirst { case l: Linear => l }.get
    val w = Array.tabulate(lin.in)(i => lin.w.v(i, 1) - lin.w.v(i, 0))
    val t = -(lin.b.v(0, 1) - lin.b.v(0, 0))
    (w, t)
  }
}

/** Boosted-Search-Forest-lite [28]: an AdaBoost-weighted forest of
  * hyperplane trees. Each tree is fit on a weighted resample of the data
  * (points that earlier trees separated from their neighbors get more
  * mass), and a query's candidate set is the union over trees of its probed
  * bins. This preserves BSF's structure (boosted complementary hyperplane
  * partitions) with 2-means hyperplanes standing in for its learned ranking
  * hyperplanes — documented in DESIGN.md §6.
  */
final class BoostedForest private (indexes: Seq[PartitionIndex]) extends CandidateIndex {
  override def candidates(q: Array[Double], mProbe: Int): Array[Int] = {
    val seen = new scala.collection.mutable.ArrayBuilder.ofInt
    indexes.foreach(idx => seen ++= idx.candidates(q, mProbe))
    seen.result().distinct
  }
}

object BoostedForest {
  def fit(data: Array[Array[Double]], knn: Array[Array[Int]], depth: Int,
          numTrees: Int, seed: Long = 33): BoostedForest = {
    val rng = new Random(seed)
    var weights = Array.fill(data.length)(1.0)
    val indexes = (0 until numTrees).map { t =>
      // weighted resample (with replacement) so high-weight points shape splits
      val resample =
        if (t == 0) data
        else {
          val cum = weights.scanLeft(0.0)(_ + _).tail
          val total = cum.last
          Array.fill(data.length) {
            val r = rng.nextDouble() * total
            var lo = 0; var hi = data.length - 1
            while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) < r) lo = mid + 1 else hi = mid }
            data(lo)
          }
        }
      val tree = BspTree.build(resample, depth, BspTree.twoMeans, seed + 101L * t)
      val index = PartitionIndex.build(tree, data)
      weights = repro.core.Ensemble.nextWeights(weights, knn, index.assignments)
      index
    }
    new BoostedForest(indexes)
  }
}
