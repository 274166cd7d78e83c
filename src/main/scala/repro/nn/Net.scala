package repro.nn

import repro.{Lcg48, Rng}
import repro.linalg.Mat
import java.lang.Double.isFinite
import java.util.Random
import scala.annotation.unused

/** A sequential stack of layers ending in logits (softmax lives in the loss).
  *
  * The loss functions in [[repro.core.UspLoss]] and the supervised baselines
  * hand back dL/d(logits); `backward` propagates it through the stack.
  */
final class Net(val layers: Seq[Layer]) extends Serializable {
  /** The training forward (layers cache for `backward`); inference runs
    * through [[predictProbs]]. `training` admits only `true`: it keeps
    * callers that name it compiling.
    */
  def forward(x: Mat, @unused training: true = true): Mat =
    layers.foldLeft(x)((h, l) => l.forward(h))

  /** Accumulates every parameter's gradient from dL/d(logits). Nothing
    * reads dL/d(input), so the first layer does not compute it.
    */
  def backward(dLogits: Mat): Unit =
    layers.head.backwardParams(layers.tail.foldRight(dLogits)((l, g) => l.backward(g)))

  def params: Seq[Param] = layers.flatMap(_.params)

  def zeroGrad(): Unit = params.foreach(_.zeroGrad())

  /** Total learnable scalar count (Table 2). */
  def paramCount: Long = params.map(_.size.toLong).sum

  /** Softmax probabilities of every row of `x`: the one inference path. */
  def predictProbs(x: Mat): Mat = inference()(x)

  /** The net's inference with its parameters as they are now: the map from
    * rows to their softmax probabilities. Each layer's [[Inference]] is
    * taken here, once; each call then runs blocks of rows through them with
    * two buffers per block, the blocks in parallel ([[Mat.parRows]]: blocks
    * of at most 64 rows, or all rows on the caller's thread below 128).
    * Inference is row-local, so a row's probabilities do not depend on its
    * block, and it writes no field, so threads may share it.
    */
  def inference(): Mat => Mat = {
    val ls = layers.toArray
    val steps = ls.map(_.inference())
    x => {
      val widths = ls.scanLeft(x.cols)((c, l) => l.outCols(c))
      val m = widths.last
      val out = Mat.zeros(x.rows, m)
      Mat.parRows(x.rows) { (r0, r1) =>
        var h = Array.ofDim[Double](r1 - r0, widths.max)
        var spare = Array.ofDim[Double](r1 - r0, widths.max)
        for (r <- r0 until r1) System.arraycopy(x.a, r * x.cols, h(r - r0), 0, x.cols)
        for (l <- steps.indices) {
          val next = steps(l)(h, r1 - r0, widths(l), spare)
          if (next ne h) { spare = h; h = next }
        }
        for (r <- r0 until r1) Net.softmaxRow(h(r - r0), out.a, r * m, m)
      }
      out
    }
  }

  /** The minibatch training loop every trainer shares: Adam over the rows of
    * `x`, reshuffled each epoch and cut into `batchSize` slices.
    *
    * `lossFor(batchIds)` runs before the training forward, so it sees the
    * BatchNorm running statistics from before the step; it returns the map
    * from the batch's softmax probabilities to (loss, dL/d(logits)).
    *
    * @return the mean batch loss of each epoch, and the time each epoch
    *         spent in each phase of its steps
    */
  def fit(x: Mat, epochs: Int, batchSize: Int, lr: Double, rng: Random)
         (lossFor: Array[Int] => Mat => (Double, Mat)): Fit = {
    require(x.rows > 0, "cannot fit on an empty dataset")
    require(batchSize > 0, s"batchSize must be positive, got $batchSize")
    val opt = new Adam(params, lr)
    val idx = Array.range(0, x.rows)
    val trace = new Array[Double](epochs)
    val phases = new Array[PhaseMs](epochs)
    var epoch = 0
    while (epoch < epochs) {
      Rng.shuffle(idx, rng)
      var lossSum = 0.0
      var steps = 0
      val ns = new Array[Long](5)
      var start = 0
      while (start < x.rows) {
        val end = math.min(x.rows, start + batchSize)
        val batchIds = java.util.Arrays.copyOfRange(idx, start, end)
        val t0 = System.nanoTime()
        val lossOf = lossFor(batchIds)
        val t1 = System.nanoTime()
        val probs = Net.softmaxRows(forward(x.selectRows(batchIds)))
        val t2 = System.nanoTime()
        val (loss, dz) = lossOf(probs)
        val t3 = System.nanoTime()
        zeroGrad()
        backward(dz)
        val t4 = System.nanoTime()
        opt.step()
        val t5 = System.nanoTime()
        ns(0) += t1 - t0; ns(1) += t2 - t1; ns(2) += t3 - t2; ns(3) += t4 - t3; ns(4) += t5 - t4
        lossSum += loss
        steps += 1
        start = end
      }
      trace(epoch) = lossSum / steps
      phases(epoch) = PhaseMs(ns(0) / 1e6, ns(1) / 1e6, ns(2) / 1e6, ns(3) / 1e6, ns(4) / 1e6)
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
    Fit(trace, phases)
  }
}

/** Milliseconds one epoch of [[Net.fit]] spent in each phase of its steps:
  * the caller's per-batch targets (for USP, the neighbours' current bins),
  * the training forward with its softmax, the loss, the backward pass and
  * the Adam update.
  */
final case class PhaseMs(targets: Double, forward: Double, loss: Double, backward: Double, adam: Double)

/** What [[Net.fit]] reports: the mean batch loss and the phase times of each epoch. */
final case class Fit(lossTrace: Array[Double], phases: Array[PhaseMs])

object Net {
  /** The paper's neural architecture (§5.2): Linear→BN→ReLU hidden block(s),
    * then a Linear output of `m` logits; dropout 0.1 between blocks. Every
    * net draws its initial weights and dropout masks from one [[Lcg48]].
    */
  def mlp(d: Int, hidden: Int, m: Int, seed: Long, dropout: Double = 0.1): Net = {
    val rng = new Lcg48(seed)
    val hid: Seq[Layer] =
      Seq(new Linear(d, hidden, rng), new BatchNorm(hidden), new ReLU) ++
      (if (dropout > 0) Seq(new Dropout(dropout, rng)) else Nil)
    new Net(hid :+ new Linear(hidden, m, rng))
  }

  /** Two-hidden-block MLP — used where a single hidden layer's decision
    * cells are too "linear" (e.g., the ring-shaped clustering datasets).
    */
  def mlp2(d: Int, hidden: Int, m: Int, seed: Long, dropout: Double = 0.1): Net = {
    val rng = new Lcg48(seed)
    def block(in: Int): Seq[Layer] =
      Seq(new Linear(in, hidden, rng), new BatchNorm(hidden), new ReLU) ++
      (if (dropout > 0) Seq(new Dropout(dropout, rng)) else Nil)
    new Net(block(d) ++ block(hidden) :+ new Linear(hidden, m, rng))
  }

  /** Logistic-regression model: a single linear map to `m` logits. */
  def logistic(d: Int, m: Int, seed: Long): Net =
    new Net(Seq(new Linear(d, m, new Lcg48(seed))))

  /** Numerically stable row-wise softmax. */
  def softmaxRows(z: Mat): Mat = {
    val out = Mat.zeros(z.rows, z.cols)
    var i = 0
    while (i < z.rows) { softmaxRow(z.row(i), out.a, i * z.cols, z.cols); i += 1 }
    out
  }

  /** Softmax of z(0 until cols) into `out` from `outOff`. */
  private def softmaxRow(z: Array[Double], out: Array[Double], outOff: Int, cols: Int): Unit = {
    var mx = z(0)
    var j = 1
    while (j < cols) { if (z(j) > mx) mx = z(j); j += 1 }
    var s = 0.0
    j = 0
    while (j < cols) { val e = math.exp(z(j) - mx); out(outOff + j) = e; s += e; j += 1 }
    j = 0
    while (j < cols) { out(outOff + j) /= s; j += 1 }
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
