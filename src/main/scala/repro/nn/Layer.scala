package repro.nn

import repro.linalg.Mat
import java.util.Random

/** A learnable tensor together with its gradient accumulator. */
final case class Param(v: Mat, g: Mat) {
  def zeroGrad(): Unit = g.fill(0.0)
  def size: Int = v.rows * v.cols
}

object Param {
  def apply(rows: Int, cols: Int): Param = Param(Mat.zeros(rows, cols), Mat.zeros(rows, cols))
}

/** One differentiable layer of the mini framework.
  *
  * A training `forward` caches whatever `backward` needs, so training is NOT
  * safe for concurrent batches (the training loop is sequential, matching
  * the paper's single-GPU setup). Inference (`training = false`) writes no
  * field, so threads may share a layer for it. `backward` receives dL/d(output) and must return dL/d(input) while
  * accumulating dL/d(params) into `params.g`.
  */
trait Layer extends Serializable {
  def forward(x: Mat, training: Boolean): Mat
  def backward(dOut: Mat): Mat
  def params: Seq[Param]
}

/** Fully connected layer `y = x W + b`, Glorot-uniform initialised. */
final class Linear(val in: Int, val out: Int, rng: Random) extends Layer {
  val w: Param = Param(in, out)
  val b: Param = Param(1, out)
  locally { // Glorot/Xavier uniform, as in the paper (§5.2)
    val limit = math.sqrt(6.0 / (in + out))
    var i = 0
    while (i < w.v.a.length) { w.v.a(i) = (rng.nextDouble() * 2 - 1) * limit; i += 1 }
  }

  private var xCache: Mat = _

  override def forward(x: Mat, training: Boolean): Mat = {
    if (training) xCache = x
    (x * w.v).addRowVector(b.v.a)
  }

  override def backward(dOut: Mat): Mat = {
    w.g.addInPlace(xCache.t * dOut)
    val cs = dOut.colSum
    var j = 0
    while (j < out) { b.g.a(j) += cs(j); j += 1 }
    dOut * w.v.t
  }

  override def params: Seq[Param] = Seq(w, b)
}

/** Rectified linear unit. */
final class ReLU extends Layer {
  private var xCache: Mat = _
  override def forward(x: Mat, training: Boolean): Mat = {
    if (training) xCache = x
    val out = new Array[Double](x.a.length)
    var i = 0
    while (i < x.a.length) { if (x.a(i) > 0) out(i) = x.a(i); i += 1 }
    new Mat(x.rows, x.cols, out)
  }
  override def backward(dOut: Mat): Mat = {
    val out = new Array[Double](dOut.a.length)
    var i = 0
    while (i < out.length) { if (xCache.a(i) > 0) out(i) = dOut.a(i); i += 1 }
    new Mat(dOut.rows, dOut.cols, out)
  }
  override def params: Seq[Param] = Nil
}

/** Batch normalization (Ioffe & Szegedy) over feature columns.
  *
  * Training uses batch statistics and keeps running estimates
  * (momentum `mom`) for inference, exactly as the paper's PyTorch layers do.
  */
final class BatchNorm(val dim: Int, mom: Double = 0.9, eps: Double = 1e-5) extends Layer {
  val gamma: Param = Param(1, dim)
  val beta: Param  = Param(1, dim)
  gamma.v.fill(1.0)

  val runMean: Array[Double] = new Array[Double](dim)
  val runVar: Array[Double]  = Array.fill(dim)(1.0)

  private var xHat: Mat = _
  private var invStd: Array[Double] = _
  private var nBatch: Int = 0

  override def forward(x: Mat, training: Boolean): Mat = {
    require(x.cols == dim)
    val out = Mat.zeros(x.rows, dim)
    if (training) {
      nBatch = x.rows
      val mean = x.colSum.map(_ / nBatch)
      val varr = new Array[Double](dim)
      var i = 0
      while (i < x.rows) {
        val off = i * dim
        var j = 0
        while (j < dim) { val d = x.a(off + j) - mean(j); varr(j) += d * d; j += 1 }
        i += 1
      }
      var j = 0
      while (j < dim) {
        varr(j) /= nBatch
        runMean(j) = mom * runMean(j) + (1 - mom) * mean(j)
        runVar(j)  = mom * runVar(j)  + (1 - mom) * varr(j)
        j += 1
      }
      invStd = varr.map(v => 1.0 / math.sqrt(v + eps))
      xHat = Mat.zeros(x.rows, dim)
      i = 0
      while (i < x.rows) {
        val off = i * dim
        var j2 = 0
        while (j2 < dim) {
          val h = (x.a(off + j2) - mean(j2)) * invStd(j2)
          xHat.a(off + j2) = h
          out.a(off + j2) = gamma.v.a(j2) * h + beta.v.a(j2)
          j2 += 1
        }
        i += 1
      }
    } else {
      val inv = runVar.map(v => 1.0 / math.sqrt(v + eps))
      var i = 0
      while (i < x.rows) {
        val off = i * dim
        var j = 0
        while (j < dim) {
          out.a(off + j) = gamma.v.a(j) * (x.a(off + j) - runMean(j)) * inv(j) + beta.v.a(j)
          j += 1
        }
        i += 1
      }
    }
    out
  }

  override def backward(dOut: Mat): Mat = {
    val n = nBatch.toDouble
    val dGamma = new Array[Double](dim)
    val dBeta  = new Array[Double](dim)
    var i = 0
    while (i < dOut.rows) {
      val off = i * dim
      var j = 0
      while (j < dim) {
        dGamma(j) += dOut.a(off + j) * xHat.a(off + j)
        dBeta(j)  += dOut.a(off + j)
        j += 1
      }
      i += 1
    }
    var j = 0
    while (j < dim) { gamma.g.a(j) += dGamma(j); beta.g.a(j) += dBeta(j); j += 1 }
    // dX = (gamma * invStd / n) * (n*dOut - sum(dOut) - xHat * sum(dOut*xHat))
    val dX = Mat.zeros(dOut.rows, dim)
    i = 0
    while (i < dOut.rows) {
      val off = i * dim
      var j2 = 0
      while (j2 < dim) {
        dX.a(off + j2) = gamma.v.a(j2) * invStd(j2) / n *
          (n * dOut.a(off + j2) - dBeta(j2) - xHat.a(off + j2) * dGamma(j2))
        j2 += 1
      }
      i += 1
    }
    dX
  }

  override def params: Seq[Param] = Seq(gamma, beta)
}

/** Inverted dropout: active only during training; identity at inference. */
final class Dropout(p: Double, rng: Random) extends Layer {
  require(p >= 0 && p < 1)
  private var mask: Array[Double] = _
  override def forward(x: Mat, training: Boolean): Mat = {
    if (!training) x
    else if (p == 0) { mask = null; x }
    else {
      val keep = 1.0 - p
      mask = new Array[Double](x.a.length)
      val out = new Array[Double](x.a.length)
      var i = 0
      while (i < x.a.length) {
        if (rng.nextDouble() < keep) { mask(i) = 1.0 / keep; out(i) = x.a(i) * mask(i) }
        i += 1
      }
      new Mat(x.rows, x.cols, out)
    }
  }
  override def backward(dOut: Mat): Mat =
    if (mask == null) dOut
    else {
      val out = new Array[Double](dOut.a.length)
      var i = 0
      while (i < out.length) { out(i) = dOut.a(i) * mask(i); i += 1 }
      new Mat(dOut.rows, dOut.cols, out)
    }
  override def params: Seq[Param] = Nil
}
