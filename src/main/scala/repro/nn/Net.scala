package repro.nn

import repro.Rng
import repro.linalg.Mat
import java.lang.Double.isFinite
import java.util.Random

/** A sequential stack of layers ending in logits (softmax lives in the loss).
  *
  * The loss functions in [[repro.core.UspLoss]] and the supervised baselines
  * hand back dL/d(logits); `backward` propagates it through the stack.
  */
final class Net(val layers: Seq[Layer]) extends Serializable {
  def forward(x: Mat, training: Boolean): Mat =
    layers.foldLeft(x)((h, l) => l.forward(h, training))

  def backward(dLogits: Mat): Mat =
    layers.reverse.foldLeft(dLogits)((g, l) => l.backward(g))

  def params: Seq[Param] = layers.flatMap(_.params)

  def zeroGrad(): Unit = params.foreach(_.zeroGrad())

  /** Total learnable scalar count (Table 2). */
  def paramCount: Long = params.map(_.size.toLong).sum

  /** Softmax probabilities for a batch (inference mode). */
  def predictProbs(x: Mat): Mat = Net.softmaxRows(forward(x, training = false))

  /** The minibatch training loop every trainer shares: Adam over the rows of
    * `x`, reshuffled each epoch and cut into `batchSize` slices.
    *
    * `lossFor(batchIds)` runs before the training forward, so it sees the
    * BatchNorm running statistics from before the step; it returns the map
    * from the batch's softmax probabilities to (loss, dL/d(logits)).
    *
    * @return the mean batch loss of each epoch
    */
  def fit(x: Mat, epochs: Int, batchSize: Int, lr: Double, rng: Random)
         (lossFor: Array[Int] => Mat => (Double, Mat)): Array[Double] = {
    require(x.rows > 0, "cannot fit on an empty dataset")
    require(batchSize > 0, s"batchSize must be positive, got $batchSize")
    val opt = new Adam(params, lr)
    val idx = Array.range(0, x.rows)
    val trace = new Array[Double](epochs)
    var epoch = 0
    while (epoch < epochs) {
      Rng.shuffle(idx, rng)
      var lossSum = 0.0
      var steps = 0
      var start = 0
      while (start < x.rows) {
        val end = math.min(x.rows, start + batchSize)
        val batchIds = java.util.Arrays.copyOfRange(idx, start, end)
        val lossOf = lossFor(batchIds)
        val (loss, dz) = lossOf(Net.softmaxRows(forward(x.selectRows(batchIds), training = true)))
        zeroGrad()
        backward(dz)
        opt.step()
        lossSum += loss
        steps += 1
        start = end
      }
      trace(epoch) = lossSum / steps
      // A NaN/Inf input or a diverged step poisons the weights, after which
      // every point lands in one bin. The loss alone does not show it: ReLU
      // maps the NaNs of a poisoned BatchNorm to 0, so the weights are checked
      // too.
      val weightsFinite = params.forall(_.v.a.forall(isFinite))
      if (!isFinite(trace(epoch)) || !weightsFinite)
        throw new IllegalStateException(
          s"training diverged in epoch ${epoch + 1} of $epochs: " +
          s"mean loss ${trace(epoch)}, weights finite: $weightsFinite")
      epoch += 1
    }
    trace
  }
}

object Net {
  /** The paper's neural architecture (§5.2): Linear→BN→ReLU hidden block(s),
    * then a Linear output of `m` logits; dropout 0.1 between blocks.
    */
  def mlp(d: Int, hidden: Int, m: Int, seed: Long, dropout: Double = 0.1): Net = {
    val rng = new Random(seed)
    val hid: Seq[Layer] =
      Seq(new Linear(d, hidden, rng), new BatchNorm(hidden), new ReLU) ++
      (if (dropout > 0) Seq(new Dropout(dropout, rng)) else Nil)
    new Net(hid :+ new Linear(hidden, m, rng))
  }

  /** Two-hidden-block MLP — used where a single hidden layer's decision
    * cells are too "linear" (e.g., the ring-shaped clustering datasets).
    */
  def mlp2(d: Int, hidden: Int, m: Int, seed: Long, dropout: Double = 0.1): Net = {
    val rng = new Random(seed)
    def block(in: Int): Seq[Layer] =
      Seq(new Linear(in, hidden, rng), new BatchNorm(hidden), new ReLU) ++
      (if (dropout > 0) Seq(new Dropout(dropout, rng)) else Nil)
    new Net(block(d) ++ block(hidden) :+ new Linear(hidden, m, rng))
  }

  /** Logistic-regression model: a single linear map to `m` logits. */
  def logistic(d: Int, m: Int, seed: Long): Net =
    new Net(Seq(new Linear(d, m, new Random(seed))))

  /** Numerically stable row-wise softmax. */
  def softmaxRows(z: Mat): Mat = {
    val out = Mat.zeros(z.rows, z.cols)
    var i = 0
    while (i < z.rows) {
      val off = i * z.cols
      var mx = z.a(off)
      var j = 1
      while (j < z.cols) { if (z.a(off + j) > mx) mx = z.a(off + j); j += 1 }
      var s = 0.0
      j = 0
      while (j < z.cols) { val e = math.exp(z.a(off + j) - mx); out.a(off + j) = e; s += e; j += 1 }
      j = 0
      while (j < z.cols) { out.a(off + j) /= s; j += 1 }
      i += 1
    }
    out
  }

  /** Given p = softmax(z) and g = dL/dp, return dL/dz (row-wise Jacobian). */
  def softmaxBackward(p: Mat, g: Mat): Mat = {
    val out = Mat.zeros(p.rows, p.cols)
    var i = 0
    while (i < p.rows) {
      val off = i * p.cols
      var dot = 0.0
      var j = 0
      while (j < p.cols) { dot += g.a(off + j) * p.a(off + j); j += 1 }
      j = 0
      while (j < p.cols) { out.a(off + j) = p.a(off + j) * (g.a(off + j) - dot); j += 1 }
      i += 1
    }
    out
  }
}

/** Adam optimiser (Kingma & Ba), as used in the paper (§5.2). */
final class Adam(params: Seq[Param], lr: Double = 1e-3,
                 beta1: Double = 0.9, beta2: Double = 0.999, eps: Double = 1e-8) {
  private val m = params.map(p => new Array[Double](p.v.a.length))
  private val v = params.map(p => new Array[Double](p.v.a.length))
  private var t = 0

  def step(): Unit = {
    t += 1
    val bc1 = 1 - math.pow(beta1, t)
    val bc2 = 1 - math.pow(beta2, t)
    var k = 0
    while (k < params.length) {
      val p = params(k); val mk = m(k); val vk = v(k)
      var i = 0
      while (i < p.v.a.length) {
        val g = p.g.a(i)
        mk(i) = beta1 * mk(i) + (1 - beta1) * g
        vk(i) = beta2 * vk(i) + (1 - beta2) * g * g
        p.v.a(i) -= lr * (mk(i) / bc1) / (math.sqrt(vk(i) / bc2) + eps)
        i += 1
      }
      k += 1
    }
  }
}
