package repro.core

import repro.linalg.Mat

/** Hierarchical partitioning (§4.4.2): a root model splits the dataset into
  * m1 bins; a leaf model per root bin splits its subset into m2 bins, for
  * m1·m2 total. A query's final bin probability is the product of the
  * root's and the leaf's probabilities down the tree (Figure 4). This is
  * how the paper reaches 256 bins (16 × 16) with small models.
  */
object Hierarchical {

  final case class Trained(root: UspModel, leaves: Array[UspModel],
                           partitioner: HierPartitioner)

  /** Exact k-NN inside a small subset, driver-side (leaf preprocessing). */
  def localKnn(subset: Array[Array[Double]], k: Int): Array[Array[Int]] = {
    val kk = math.max(1, math.min(k, subset.length - 1))
    KnnMatrix.blockKnn(subset, subset, kk, excludeSelf = true)
  }

  def train(data: Array[Array[Double]], knn: Array[Array[Int]],
            rootCfg: UspConfig, m2: Int, leafEpochs: Int): Trained = {
    val m1 = rootCfg.m
    val root = UspTrainer.train(data, knn, rootCfg)
    val leafCfgBase = rootCfg.copy(m = m2, epochs = leafEpochs)
    val leaves = new Array[UspModel](m1)
    var b = 0
    while (b < m1) {
      val subsetIdx = root.assignments.zipWithIndex.collect { case (bin, i) if bin == b => i }
      val subset = subsetIdx.map(data)
      if (subset.length <= math.max(2, m2)) {
        // Degenerate bin: too few points to subdivide; a fresh (untrained)
        // model still yields a valid (arbitrary) m2-way split of <=m2 points.
        val net = UspTrainer.defaultNet(data(0).length, leafCfgBase.copy(seed = rootCfg.seed + b))
        val asg = new ModelPartitioner(net, m2).assignAll(subset)
        leaves(b) = UspModel(net, asg, Array.empty, leafCfgBase, Array.empty)
      } else {
        val localK = localKnn(subset, rootCfg.kPrime)
        leaves(b) = UspTrainer.train(subset, localK,
          leafCfgBase.copy(seed = rootCfg.seed + 31L * (b + 1),
                           batchSize = math.min(leafCfgBase.batchSize, subset.length)))
      }
      b += 1
    }
    val part = new HierPartitioner(new ModelPartitioner(root.net, m1),
                                   leaves.map(l => new ModelPartitioner(l.net, m2)))
    Trained(root, leaves, part)
  }
}

/** The combined m1·m2-way partitioner: bin id = rootBin * m2 + leafBin. */
final class HierPartitioner(root: ModelPartitioner, leaves: Array[ModelPartitioner])
    extends SpacePartitioner {
  private val m2 = leaves.head.numBins
  override val numBins: Int = root.numBins * m2

  /** Root argmax, then that root bin's leaf argmax: the split each leaf was
    * trained on (the argmax of the combined scores can differ).
    */
  override def assign(v: Array[Double]): Int = {
    val rb = root.assign(v)
    rb * m2 + leaves(rb).assign(v)
  }

  /** The root's bins of all rows in one batch, then each root bin's rows
    * through its leaf in one batch: `rows.map(assign)`, in row order.
    */
  override def assignAll(rows: Array[Array[Double]]): Array[Int] = {
    val rootBins = root.assignAll(rows)
    val out = new Array[Int](rows.length)
    for (b <- leaves.indices) {
      val ids = Array.range(0, rows.length).filter(rootBins(_) == b)
      val leafBins = leaves(b).assignAll(ids.map(rows))
      for (t <- ids.indices) out(ids(t)) = b * m2 + leafBins(t)
    }
    out
  }

  /** Combined probabilities p[j*m2+t] = rootP[j] · leafP_j[t]. */
  override def binScores(q: Array[Double]): Array[Double] = {
    val rp = root.binScores(q)
    rp.indices.toArray.flatMap(j => leaves(j).binScores(q).map(rp(j) * _))
  }

  /** The root over all rows in one batch, then each leaf over all rows in
    * one batch; the products are formed as `binScores(q)` forms them.
    */
  override def binScores(rows: Mat): Mat = {
    val rp = root.binScores(rows)
    val out = Mat.zeros(rows.rows, numBins)
    for (j <- leaves.indices) {
      val lp = leaves(j).binScores(rows)
      for (i <- 0 until rows.rows; t <- 0 until m2) out(i, j * m2 + t) = rp(i, j) * lp(i, t)
    }
    out
  }
}
