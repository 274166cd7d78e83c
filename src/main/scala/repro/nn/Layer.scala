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
  * `forward` is the training pass: it caches whatever `backward` needs, so
  * training is NOT safe for concurrent batches (the training loop is
  * sequential, matching the paper's single-GPU setup). `backward` receives
  * dL/d(output), accumulates dL/d(params) into `params.g` and returns
  * dL/d(input); `backwardParams` only accumulates.
  *
  * `inference()` captures the parameters as they are and returns the
  * layer's [[Inference]], which [[Net.predictProbs]] runs.
  */
trait Layer extends Serializable {
  def forward(x: Mat): Mat
  def backward(dOut: Mat): Mat
  def backwardParams(dOut: Mat): Unit = { backward(dOut); () }
  def inference(): Inference
  /** Width of the output for an input `cols` wide. */
  def outCols(cols: Int): Int = cols
  def params: Seq[Param]
}

/** One layer's inference over a block of rows held in caller-owned
  * buffers, one array per row. It reads the first `cols` entries of
  * x(0 until rows) and returns the rows that hold its output: `x` itself,
  * overwritten, for an elementwise layer, else `spare`. It writes no field,
  * so threads may share it.
  */
trait Inference {
  def apply(x: Array[Array[Double]], rows: Int, cols: Int, spare: Array[Array[Double]]): Array[Array[Double]]
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

  override def forward(x: Mat): Mat = {
    xCache = x
    val y = x * w.v
    addBias(y.a, x.rows)
    y
  }

  override def backward(dOut: Mat): Mat = {
    backwardParams(dOut)
    dOut.timesT(w.v)
  }

  override def backwardParams(dOut: Mat): Unit = {
    w.g.addInPlace(xCache.tTimes(dOut))
    val cs = dOut.colSum
    var j = 0
    while (j < out) { b.g.a(j) += cs(j); j += 1 }
  }

  /** Adds b to each of the first `rows` rows of `y`, after the product. */
  private def addBias(y: Array[Double], rows: Int): Unit = {
    var i = 0
    while (i < rows) {
      val off = i * out
      var j = 0
      while (j < out) { y(off + j) += b.v.a(j); j += 1 }
      i += 1
    }
  }

  /** The forward's sums, in its order: the product, then the bias. */
  override def inference(): Inference = {
    val wRows = w.v.rowArrays
    val bias = b.v.a.clone()
    (x, rows, _, spare) => {
      var i = 0
      while (i < rows) {
        val y = spare(i)
        java.util.Arrays.fill(y, 0, out, 0.0)
        Mat.mulAddRow(x(i), 0, in, wRows, y, out)
        var j = 0
        while (j < out) { y(j) += bias(j); j += 1 }
        i += 1
      }
      spare
    }
  }

  override def outCols(cols: Int): Int = out

  override def params: Seq[Param] = Seq(w, b)
}

/** Rectified linear unit. */
final class ReLU extends Layer {
  private var xCache: Mat = _
  override def forward(x: Mat): Mat = {
    xCache = x
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
  override def inference(): Inference = (x, rows, cols, _) => {
    var i = 0
    while (i < rows) {
      val r = x(i)
      var j = 0
      while (j < cols) { r(j) = if (r(j) > 0) r(j) else 0.0; j += 1 }
      i += 1
    }
    x
  }
  override def params: Seq[Param] = Nil
}

/** Batch normalization (Ioffe & Szegedy) over feature columns.
  *
  * The training forward uses batch statistics and keeps running estimates
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

  override def forward(x: Mat): Mat = {
    require(x.cols == dim)
    val out = Mat.zeros(x.rows, dim)
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
    out
  }

  /** Normalises with the running statistics, in place. */
  override def inference(): Inference = {
    val g = gamma.v.a.clone()
    val bt = beta.v.a.clone()
    val mean = runMean.clone()
    val inv = runVar.map(v => 1.0 / math.sqrt(v + eps))
    (x, rows, _, _) => {
      var i = 0
      while (i < rows) {
        val r = x(i)
        var j = 0
        while (j < dim) { r(j) = g(j) * (r(j) - mean(j)) * inv(j) + bt(j); j += 1 }
        i += 1
      }
      x
    }
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
  override def forward(x: Mat): Mat = {
    if (p == 0) { mask = null; x }
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
  override def inference(): Inference = (x, _, _, _) => x
  override def params: Seq[Param] = Nil
}
