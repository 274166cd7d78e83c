package repro.linalg

import java.util.concurrent.{ForkJoinPool, RecursiveAction}

/** Minimal row-major dense matrix over `Array[Double]`.
  *
  * This is the substrate for the mini neural-network framework in
  * [[repro.nn]]: the offline container has no breeze/netlib, so the few
  * BLAS-like kernels the paper's training loop needs (GEMM and its two
  * transposed forms, row/col reductions, elementwise maps) are implemented
  * here directly.
  *
  * Matrices are mutable on purpose — the training loop reuses gradient
  * buffers — but every operation that returns a `Mat` allocates a fresh
  * one unless its name ends in `InPlace`.
  */
final class Mat(val rows: Int, val cols: Int, val a: Array[Double]) extends Serializable {
  require(a.length == rows * cols, s"backing array ${a.length} != $rows x $cols")

  @inline def apply(i: Int, j: Int): Double = a(i * cols + j)
  @inline def update(i: Int, j: Int, v: Double): Unit = a(i * cols + j) = v

  /** Copy of row `i` as a vector. */
  def row(i: Int): Array[Double] = {
    val out = new Array[Double](cols)
    System.arraycopy(a, i * cols, out, 0, cols)
    out
  }

  def copy(): Mat = new Mat(rows, cols, a.clone())

  /** Matrix product `this * other`, parallelized over row blocks. */
  def *(other: Mat): Mat = {
    require(cols == other.rows, s"dim mismatch: ${rows}x$cols * ${other.rows}x${other.cols}")
    mulRows(other.rowArrays, other.cols)
  }

  /** `this · otherᵀ`: entry (i, k) sums `this(i, j) · other(k, j)` over j
    * ascending, skipping zero `this(i, j)`, exactly as `this * other.t`
    * does. `other` is read as its columns (one copy of `other`, which is the
    * small operand here: a weight matrix).
    */
  def timesT(other: Mat): Mat = {
    require(cols == other.cols, s"dim mismatch: ${rows}x$cols * (${other.rows}x${other.cols})ᵀ")
    mulRows(Array.tabulate(other.cols)(j => Array.tabulate(other.rows)(other(_, j))), other.rows)
  }

  /** `this · B` for B given as its `cols` rows, each `n` wide. */
  private def mulRows(b: Array[Array[Double]], n: Int): Mat = {
    val out = Mat.zeros(rows, n)
    Mat.parRows(rows) { (r0, r1) =>
      val acc = new Array[Double](n)
      var i = r0
      while (i < r1) {
        java.util.Arrays.fill(acc, 0.0)
        Mat.mulAddRow(a, i * cols, cols, b, acc, n)
        System.arraycopy(acc, 0, out.a, i * n, n)
        i += 1
      }
    }
    out
  }

  /** `thisᵀ · other` without building the transpose: entry (k, j) sums
    * `this(i, k) · other(i, j)` over i ascending, skipping zero `this(i, k)`,
    * exactly as `t * other` does. Parallel over blocks of k.
    */
  def tTimes(other: Mat): Mat = {
    require(rows == other.rows, s"dim mismatch: (${rows}x$cols)ᵀ * ${other.rows}x${other.cols}")
    val n = other.cols
    val dRows = other.rowArrays
    val out = Mat.zeros(cols, n)
    Mat.parRows(cols) { (k0, k1) =>
      val g = Array.fill(k1 - k0)(new Array[Double](n))
      var i = 0
      while (i < rows) {
        val d = dRows(i)
        val off = i * cols
        var k = k0
        while (k < k1) {
          val xik = a(off + k)
          if (xik != 0.0) {
            val gk = g(k - k0)
            var j = 0
            while (j < n) { gk(j) += xik * d(j); j += 1 }
          }
          k += 1
        }
        i += 1
      }
      var k = k0
      while (k < k1) { System.arraycopy(g(k - k0), 0, out.a, k * n, n); k += 1 }
    }
    out
  }

  /** Each row as its own array. */
  def rowArrays: Array[Array[Double]] = Array.tabulate(rows)(row)

  def t: Mat = {
    val out = Mat.zeros(cols, rows)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) { out.a(j * rows + i) = a(i * cols + j); j += 1 }
      i += 1
    }
    out
  }

  def +(other: Mat): Mat = zipMap(other)(_ + _)
  def -(other: Mat): Mat = zipMap(other)(_ - _)
  def scale(s: Double): Mat = map(_ * s)

  def addInPlace(other: Mat, factor: Double = 1.0): Unit = {
    require(rows == other.rows && cols == other.cols)
    var i = 0
    while (i < a.length) { a(i) += factor * other.a(i); i += 1 }
  }

  def fill(v: Double): Unit = java.util.Arrays.fill(a, v)

  def map(f: Double => Double): Mat = {
    val out = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { out(i) = f(a(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def zipMap(other: Mat)(f: (Double, Double) => Double): Mat = {
    require(rows == other.rows && cols == other.cols,
            s"dim mismatch: ${rows}x$cols vs ${other.rows}x${other.cols}")
    val out = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { out(i) = f(a(i), other.a(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  /** Column sums as a length-`cols` vector. */
  def colSum: Array[Double] = {
    val out = new Array[Double](cols)
    var i = 0
    while (i < rows) {
      val off = i * cols
      var j = 0
      while (j < cols) { out(j) += a(off + j); j += 1 }
      i += 1
    }
    out
  }

  /** Row sums as a length-`rows` vector. */
  def rowSum: Array[Double] = {
    val out = new Array[Double](rows)
    var i = 0
    while (i < rows) {
      val off = i * cols
      var s = 0.0
      var j = 0
      while (j < cols) { s += a(off + j); j += 1 }
      out(i) = s
      i += 1
    }
    out
  }

  def sum: Double = { var s = 0.0; var i = 0; while (i < a.length) { s += a(i); i += 1 }; s }

  /** Index of the maximum entry of each row. Ties break to the lowest index. */
  def argmaxRows: Array[Int] = {
    val out = new Array[Int](rows)
    var i = 0
    while (i < rows) {
      val off = i * cols
      var best = 0; var bv = a(off)
      var j = 1
      while (j < cols) { if (a(off + j) > bv) { bv = a(off + j); best = j }; j += 1 }
      out(i) = best
      i += 1
    }
    out
  }

  /** Select rows by index into a new matrix. */
  def selectRows(idx: Array[Int]): Mat = {
    val out = Mat.zeros(idx.length, cols)
    var i = 0
    while (i < idx.length) {
      System.arraycopy(a, idx(i) * cols, out.a, i * cols, cols)
      i += 1
    }
    out
  }

  override def toString: String = {
    val sb = new StringBuilder(s"Mat(${rows}x$cols)\n")
    val r = math.min(rows, 6)
    for (i <- 0 until r)
      sb.append((0 until math.min(cols, 8)).map(j => f"${apply(i, j)}%10.4f").mkString(" ")).append('\n')
    sb.toString
  }
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def apply(rows: Int, cols: Int)(f: (Int, Int) => Double): Mat = {
    val m = zeros(rows, cols)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { m(i, j) = f(i, j); j += 1 }; i += 1 }
    m
  }

  /** Build from row arrays (each of equal length). */
  def fromRows(rs: Seq[Array[Double]]): Mat = {
    require(rs.nonEmpty, "fromRows needs at least one row")
    val cols = rs.head.length
    val m = zeros(rs.length, cols)
    var i = 0
    rs.foreach { r =>
      require(r.length == cols, "ragged rows")
      System.arraycopy(r, 0, m.a, i * cols, cols)
      i += 1
    }
    m
  }

  /** `acc(0 until n) += x(xOff + k) · b(k)(0 until n)` for k from 0 until
    * `inner`, ascending, skipping zero x entries: one output row of a
    * product, each entry summed over k in order. `acc` and the rows of `b`
    * are indexed alike, which is what lets C2 vectorise the inner loop.
    */
  private[repro] def mulAddRow(x: Array[Double], xOff: Int, inner: Int, b: Array[Array[Double]],
                               acc: Array[Double], n: Int): Unit = {
    var k = 0
    while (k < inner) {
      val xk = x(xOff + k)
      if (xk != 0.0) {
        val bk = b(k)
        var j = 0
        while (j < n) { acc(j) += xk * bk(j); j += 1 }
      }
      k += 1
    }
  }

  private lazy val pool = new ForkJoinPool(
    math.max(1, Runtime.getRuntime.availableProcessors() - 1))

  /** Run `body(r0, r1)` over disjoint row ranges, in parallel for big
    * inputs: ranges of at most 64 rows, or all rows in one call below 128.
    */
  private[repro] def parRows(rows: Int)(body: (Int, Int) => Unit): Unit = {
    val minBlock = 64
    if (rows < 2 * minBlock) body(0, rows)
    else {
      final class Task(r0: Int, r1: Int) extends RecursiveAction {
        override def compute(): Unit =
          if (r1 - r0 <= minBlock) body(r0, r1)
          else {
            val mid = (r0 + r1) / 2
            java.util.concurrent.ForkJoinTask.invokeAll(new Task(r0, mid), new Task(mid, r1))
          }
      }
      pool.invoke(new Task(0, rows))
    }
  }
}
