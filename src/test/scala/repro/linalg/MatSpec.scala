package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import java.util.Random

class MatSpec extends AnyFunSuite {

  private def randMat(r: Int, c: Int, seed: Long): Mat = {
    val rng = new Random(seed)
    Mat(r, c)((_, _) => rng.nextGaussian())
  }

  test("zeros produces all-zero matrix of the right shape") {
    val m = Mat.zeros(3, 4)
    assert(m.rows == 3 && m.cols == 4)
    assert(m.a.forall(_ == 0.0))
  }

  test("apply/update are row-major consistent") {
    val m = Mat.zeros(2, 3)
    m(1, 2) = 5.0
    assert(m.a(5) == 5.0)
    assert(m(1, 2) == 5.0)
  }

  test("constructor rejects wrong backing length") {
    intercept[IllegalArgumentException](new Mat(2, 2, new Array[Double](3)))
  }

  test("fromRows round-trips rows") {
    val m = Mat.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(m.row(0).toSeq == Seq(1.0, 2.0))
    assert(m.row(1).toSeq == Seq(3.0, 4.0))
  }

  test("fromRows rejects ragged rows") {
    intercept[IllegalArgumentException](Mat.fromRows(Seq(Array(1.0), Array(1.0, 2.0))))
  }

  test("matmul against a hand-computed 2x2 example") {
    val a = Mat.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    val b = Mat.fromRows(Seq(Array(5.0, 6.0), Array(7.0, 8.0)))
    val c = a * b
    assert(c(0, 0) == 19.0 && c(0, 1) == 22.0 && c(1, 0) == 43.0 && c(1, 1) == 50.0)
  }

  test("matmul identity is a no-op") {
    val a = randMat(5, 5, 1)
    val id = Mat(5, 5)((i, j) => if (i == j) 1.0 else 0.0)
    val c = a * id
    assert(c.a.zip(a.a).forall { case (x, y) => math.abs(x - y) < 1e-12 })
  }

  test("matmul dimension mismatch throws") {
    intercept[IllegalArgumentException](randMat(2, 3, 1) * randMat(2, 3, 2))
  }

  test("matmul matches naive triple loop on random input") {
    val a = randMat(7, 5, 2); val b = randMat(5, 9, 3)
    val c = a * b
    for (i <- 0 until 7; j <- 0 until 9) {
      var s = 0.0
      for (k <- 0 until 5) s += a(i, k) * b(k, j)
      assert(math.abs(c(i, j) - s) < 1e-10)
    }
  }

  test("parallel path (large rows) matches small-matrix semantics") {
    val a = randMat(300, 16, 4); val b = randMat(16, 8, 5)
    val c = a * b
    // spot-check several entries against the naive computation
    for (i <- Seq(0, 57, 123, 299); j <- Seq(0, 3, 7)) {
      var s = 0.0
      for (k <- 0 until 16) s += a(i, k) * b(k, j)
      assert(math.abs(c(i, j) - s) < 1e-10)
    }
  }

  test("transpose twice is identity") {
    val a = randMat(4, 6, 6)
    val t = a.t.t
    assert(t.rows == 4 && t.cols == 6)
    assert(t.a.zip(a.a).forall { case (x, y) => x == y })
  }

  test("transpose swaps indices") {
    val a = randMat(3, 5, 7)
    val t = a.t
    for (i <- 0 until 3; j <- 0 until 5) assert(t(j, i) == a(i, j))
  }

  test("add and subtract are elementwise") {
    val a = randMat(3, 3, 8); val b = randMat(3, 3, 9)
    val s = a + b; val d = a - b
    for (i <- 0 until 3; j <- 0 until 3) {
      assert(math.abs(s(i, j) - (a(i, j) + b(i, j))) < 1e-12)
      assert(math.abs(d(i, j) - (a(i, j) - b(i, j))) < 1e-12)
    }
  }

  test("zipMap rejects mismatched shapes") {
    intercept[IllegalArgumentException](randMat(2, 2, 1).zipMap(randMat(2, 3, 2))(_ + _))
  }

  test("addInPlace accumulates with a factor") {
    val a = Mat.fromRows(Seq(Array(1.0, 1.0)))
    val b = Mat.fromRows(Seq(Array(2.0, 3.0)))
    a.addInPlace(b, 0.5)
    assert(a(0, 0) == 2.0 && a(0, 1) == 2.5)
  }

  test("colSum and rowSum") {
    val a = Mat.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(a.colSum.toSeq == Seq(4.0, 6.0))
    assert(a.rowSum.toSeq == Seq(3.0, 7.0))
    assert(a.sum == 10.0)
  }

  test("argmaxRows picks the max per row with lowest-index tie break") {
    val a = Mat.fromRows(Seq(Array(1.0, 3.0, 2.0), Array(5.0, 5.0, 4.0)))
    assert(a.argmaxRows.toSeq == Seq(1, 0))
  }

  test("selectRows gathers by index, allowing repeats") {
    val a = Mat.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0), Array(5.0, 6.0)))
    val s = a.selectRows(Array(2, 0, 2))
    assert(s.row(0).toSeq == Seq(5.0, 6.0))
    assert(s.row(1).toSeq == Seq(1.0, 2.0))
    assert(s.row(2).toSeq == Seq(5.0, 6.0))
  }

  test("map applies elementwise and scale multiplies") {
    val a = Mat.fromRows(Seq(Array(1.0, -2.0)))
    assert(a.map(math.abs).row(0).toSeq == Seq(1.0, 2.0))
    assert(a.scale(3.0).row(0).toSeq == Seq(3.0, -6.0))
  }

  test("copy is deep") {
    val a = randMat(2, 2, 10)
    val c = a.copy()
    c(0, 0) = 999.0
    assert(a(0, 0) != 999.0)
  }

  test("fill overwrites all entries") {
    val a = randMat(3, 3, 11)
    a.fill(7.0)
    assert(a.a.forall(_ == 7.0))
  }

  test("matmul associativity on random matrices (numeric)") {
    val a = randMat(4, 5, 12); val b = randMat(5, 6, 13); val c = randMat(6, 3, 14)
    val l = (a * b) * c
    val r = a * (b * c)
    assert(l.a.zip(r.a).forall { case (x, y) => math.abs(x - y) < 1e-9 })
  }

  test("matmul distributes over addition (numeric)") {
    val a = randMat(3, 4, 15); val b = randMat(4, 2, 16); val c = randMat(4, 2, 17)
    val l = a * (b + c)
    val r = (a * b) + (a * c)
    assert(l.a.zip(r.a).forall { case (x, y) => math.abs(x - y) < 1e-9 })
  }

  test("transpose of a product is the reversed product of transposes") {
    val a = randMat(3, 4, 18); val b = randMat(4, 5, 19)
    val l = (a * b).t
    val r = b.t * a.t
    assert(l.a.zip(r.a).forall { case (x, y) => math.abs(x - y) < 1e-9 })
  }

  // ─── the training kernels, bit for bit against naive sums kept here ───

  /** Gaussian entries (half of them negative) with about a third set to 0. */
  private def sparseMat(r: Int, c: Int, seed: Long): Mat = {
    val rng = new Random(seed)
    Mat(r, c)((_, _) => if (rng.nextDouble() < 0.35) 0.0 else rng.nextGaussian())
  }

  private def bits(m: Mat): Seq[Long] = m.a.toSeq.map(java.lang.Double.doubleToLongBits)

  /** Shapes across the parallel split (128 rows) and the 64-row task size. */
  private val shapes = Seq((1, 1, 1), (7, 5, 3), (64, 32, 128), (130, 33, 17), (257, 128, 16), (800, 129, 5))

  test("product equals the naive k-ordered sum, zeros skipped, bit for bit") {
    for (((r, in, out), s) <- shapes.zipWithIndex) {
      val x = sparseMat(r, in, 100 + s); val w = sparseMat(in, out, 200 + s)
      val naive = Mat(r, out) { (i, j) =>
        var acc = 0.0
        for (k <- 0 until in) if (x(i, k) != 0.0) acc += x(i, k) * w(k, j)
        acc
      }
      assert(bits(x * w) == bits(naive), (r, in, out))
    }
  }

  test("tTimes (xᵀ·dOut) equals the naive row-ordered sum and x.t * dOut, bit for bit") {
    for (((r, in, out), s) <- shapes.zipWithIndex) {
      val x = sparseMat(r, in, 300 + s); val d = sparseMat(r, out, 400 + s)
      val naive = Mat(in, out) { (k, j) =>
        var acc = 0.0
        for (i <- 0 until r) if (x(i, k) != 0.0) acc += x(i, k) * d(i, j)
        acc
      }
      val got = x.tTimes(d)
      assert(got.rows == in && got.cols == out)
      assert(bits(got) == bits(naive), (r, in, out))
      assert(bits(got) == bits(x.t * d), (r, in, out))
    }
  }

  test("timesT (dOut·wᵀ) equals the naive column-ordered sum and dOut * w.t, bit for bit") {
    for (((r, in, out), s) <- shapes.zipWithIndex) {
      val d = sparseMat(r, out, 500 + s); val w = sparseMat(in, out, 600 + s)
      val naive = Mat(r, in) { (i, k) =>
        var acc = 0.0
        for (j <- 0 until out) if (d(i, j) != 0.0) acc += d(i, j) * w(k, j)
        acc
      }
      val got = d.timesT(w)
      assert(got.rows == r && got.cols == in)
      assert(bits(got) == bits(naive), (r, in, out))
      assert(bits(got) == bits(d * w.t), (r, in, out))
    }
  }

  test("tTimes and timesT reject mismatched shapes") {
    intercept[IllegalArgumentException](randMat(3, 2, 1).tTimes(randMat(4, 2, 2)))
    intercept[IllegalArgumentException](randMat(3, 2, 1).timesT(randMat(3, 4, 2)))
  }
}
