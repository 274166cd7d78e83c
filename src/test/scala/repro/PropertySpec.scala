package repro

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.ClusterMetrics
import repro.core.{KnnMatrix, UspLoss}
import repro.linalg.Mat
import repro.nn.Net

/** Property-based tests (ScalaCheck driven directly; the scalatest bridge
  * artifact is not available offline). Each property runs 100 random cases.
  */
class PropertySpec extends AnyFunSuite {

  private def check(name: String, prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, s"$name failed: ${res.status}")
  }

  private val smallMat: Gen[Mat] = for {
    r <- Gen.choose(1, 6)
    c <- Gen.choose(1, 6)
    xs <- Gen.listOfN(r * c, Gen.choose(-10.0, 10.0))
  } yield new Mat(r, c, xs.toArray)

  private def matPair: Gen[(Mat, Mat)] = for {
    a <- smallMat
    xs <- Gen.listOfN(a.rows * a.cols, Gen.choose(-10.0, 10.0))
  } yield (a, new Mat(a.rows, a.cols, xs.toArray))

  test("property: matrix addition commutes") {
    check("add-comm", Prop.forAll(matPair) { case (a, b) =>
      (a + b).a.zip((b + a).a).forall { case (x, y) => math.abs(x - y) < 1e-12 }
    })
  }

  test("property: transpose preserves the multiset of entries") {
    check("transpose-entries", Prop.forAll(smallMat) { m =>
      m.t.a.sorted.sameElements(m.a.sorted)
    })
  }

  test("property: rowSum and colSum have equal totals") {
    check("sum-consistency", Prop.forAll(smallMat) { m =>
      math.abs(m.rowSum.sum - m.colSum.sum) < 1e-9
    })
  }

  test("property: argmaxRows indexes a maximal entry of each row") {
    check("argmax", Prop.forAll(smallMat) { m =>
      m.argmaxRows.zipWithIndex.forall { case (j, i) =>
        (0 until m.cols).forall(c => m(i, c) <= m(i, j))
      }
    })
  }

  test("property: softmax rows are distributions and preserve row argmax") {
    check("softmax", Prop.forAll(smallMat) { m =>
      val p = Net.softmaxRows(m)
      val sums = p.rowSum.forall(s => math.abs(s - 1.0) < 1e-9)
      val argmax = p.argmaxRows.sameElements(m.argmaxRows)
      val range = p.a.forall(v => v >= 0 && v <= 1)
      sums && argmax && range
    })
  }

  test("property: sqDist is symmetric, nonnegative, and zero iff equal") {
    val vecs = for {
      d <- Gen.choose(1, 8)
      a <- Gen.listOfN(d, Gen.choose(-5.0, 5.0))
      b <- Gen.listOfN(d, Gen.choose(-5.0, 5.0))
    } yield (a.toArray, b.toArray)
    check("sqdist", Prop.forAll(vecs) { case (a, b) =>
      val ab = KnnMatrix.sqDist(a, b)
      ab >= 0 &&
        math.abs(ab - KnnMatrix.sqDist(b, a)) < 1e-12 &&
        KnnMatrix.sqDist(a, a) == 0.0
    })
  }

  test("property: topK returns k sorted-by-distance distinct indices matching naive") {
    val cases = for {
      n <- Gen.choose(5, 40)
      d <- Gen.choose(1, 4)
      k <- Gen.choose(1, 4)
      seed <- Gen.choose(0L, 10000L)
    } yield (n, d, math.min(k, n - 1), seed)
    check("topk", Prop.forAll(cases) { case (n, d, k, seed) =>
      val rng = new java.util.Random(seed)
      val data = Array.fill(n)(Array.fill(d)(rng.nextGaussian()))
      val got = KnnMatrix.topK(data, data(0), k, 0).toSeq
      val want = (1 until n).sortBy(i => KnnMatrix.sqDist(data(i), data(0))).take(k)
      got.length == k && got.distinct.length == k && got == want
    })
  }

  test("property: blockKnn equals topK row for row on tile edges, ties and external queries") {
    val w = KnnMatrix.TileRows
    val cases = for {
      n <- Gen.oneOf(Gen.oneOf(1, w - 1, w, w + 1, 2 * w + 3), Gen.choose(1, 2 * w + 3))
      d <- Gen.oneOf(Gen.oneOf(1, 33), Gen.choose(1, 40))
      k <- Gen.choose(0, n - 1)
      gridded <- Gen.oneOf(true, false) // small integer coordinates: many tied distances
      self <- Gen.oneOf(true, false)
      seed <- Gen.choose(0L, 10000L)
    } yield (n, d, k, gridded, self, seed)
    check("blockknn", Prop.forAll(cases) { case (n, d, k, gridded, self, seed) =>
      val rng = new java.util.Random(seed)
      def point() = Array.fill(d)(if (gridded) rng.nextInt(3).toDouble else rng.nextGaussian())
      val base = Array.fill(n)(point())
      val queries = if (self) base else Array.fill(3)(point())
      val got = KnnMatrix.blockKnn(base, queries, k, excludeSelf = self)
      queries.indices.forall { qi =>
        val selfId = if (self) qi else -1
        val naive = base.indices.filter(_ != selfId)
          .sortBy(i => (KnnMatrix.sqDist(base(i), queries(qi)), i)).take(k)
        got(qi).sameElements(KnnMatrix.topK(base, queries(qi), k, selfId)) &&
          (qi > 2 || got(qi).toSeq == naive)
      }
    })
  }

  test("property: ARI is symmetric and equals 1 on identical labelings") {
    val labelings = for {
      n <- Gen.choose(4, 60)
      k <- Gen.choose(1, 4)
      a <- Gen.listOfN(n, Gen.choose(0, k))
      b <- Gen.listOfN(n, Gen.choose(0, k))
    } yield (a.toArray, b.toArray)
    check("ari", Prop.forAll(labelings) { case (a, b) =>
      val sym = math.abs(ClusterMetrics.ari(a, b) - ClusterMetrics.ari(b, a)) < 1e-9
      sym && ClusterMetrics.ari(a, a) == 1.0
    })
  }

  test("property: balance loss lies in [-1, 0] and its gradient is nonpositive") {
    check("balance", Prop.forAll(smallMat) { m =>
      val p = Net.softmaxRows(m)
      val (loss, dP) = UspLoss.balanceLossGrad(p)
      loss <= 1e-12 && loss >= -1.0 - 1e-12 && dP.a.forall(_ <= 0.0)
    })
  }

  test("property: quality loss is nonnegative and zero only at matching one-hots") {
    val cases = for {
      batch <- Gen.choose(1, 6)
      m <- Gen.choose(2, 5)
      logits <- Gen.listOfN(batch * m, Gen.choose(-3.0, 3.0))
      targetBins <- Gen.listOfN(batch, Gen.choose(0, m - 1))
    } yield (batch, m, logits.toArray, targetBins.toArray)
    check("quality", Prop.forAll(cases) { case (batch, m, logits, bins) =>
      val p = Net.softmaxRows(new Mat(batch, m, logits))
      val t = Mat.zeros(batch, m)
      bins.zipWithIndex.foreach { case (b, i) => t(i, b) = 1.0 }
      val (loss, _) = UspLoss.lossAndGrad(p, t, Array.fill(batch)(1.0), eta = 0.0)
      loss >= -1e-12
    })
  }

  test("property: ensemble weight update keeps mean at 1 and nonnegative weights") {
    val cases = for {
      n <- Gen.choose(3, 40)
      k <- Gen.choose(1, 4)
      seed <- Gen.choose(0L, 9999L)
    } yield (n, k, seed)
    check("weights", Prop.forAll(cases) { case (n, k, seed) =>
      val rng = new java.util.Random(seed)
      val knn = Array.fill(n)(Array.fill(k)(rng.nextInt(n)))
      val asg = Array.fill(n)(rng.nextInt(3))
      val w = repro.core.Ensemble.nextWeights(Array.fill(n)(1.0), knn, asg)
      w.forall(_ >= 0) && math.abs(w.sum / n - 1.0) < 1e-9
    })
  }

  test("property: neighborBinTargets rows are distributions") {
    val cases = for {
      n <- Gen.choose(3, 30)
      k <- Gen.choose(1, 5)
      m <- Gen.choose(2, 6)
      seed <- Gen.choose(0L, 9999L)
    } yield (n, k, m, seed)
    check("targets", Prop.forAll(cases) { case (n, k, m, seed) =>
      val rng = new java.util.Random(seed)
      val knn = Array.fill(n)(Array.fill(k)(rng.nextInt(n)))
      val asg = Array.fill(n)(rng.nextInt(m))
      val t = UspLoss.neighborBinTargets(Array.tabulate(n)(identity), knn, asg, m)
      t.rowSum.forall(s => math.abs(s - 1.0) < 1e-9) && t.a.forall(_ >= 0)
    })
  }
}
