package repro

import org.scalatest.funsuite.AnyFunSuite

class SynthDataSpec extends AnyFunSuite {

  test("gaussianMixture is deterministic in seed and has the right shape") {
    val a = SynthData.gaussianMixture(100, 8, 4, seed = 1)
    val b = SynthData.gaussianMixture(100, 8, 4, seed = 1)
    val c = SynthData.gaussianMixture(100, 8, 4, seed = 2)
    assert(a.length == 100 && a.forall(_.length == 8))
    assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
    assert(!a.zip(c).forall { case (x, y) => x.sameElements(y) })
  }

  test("siftLite produces clustered data: mean NN distance well below random-pair distance") {
    val data = SynthData.siftLite(500, seed = 3)
    val rng = new java.util.Random(1)
    def dist(a: Array[Double], b: Array[Double]) = math.sqrt(repro.core.KnnMatrix.sqDist(a, b))
    val nnDists = (0 until 100).map { i =>
      (0 until data.length).filter(_ != i).map(j => dist(data(i), data(j))).min
    }
    val randDists = (0 until 100).map(_ => dist(data(rng.nextInt(500)), data(rng.nextInt(500))))
    assert(nnDists.sum / 100 < randDists.sum / 100 * 0.5,
      "nearest-neighbor distances should be far below random-pair distances in clustered data")
  }

  test("mnistLite has 10-cluster low-rank structure in the right dimension") {
    val data = SynthData.mnistLite(300, seed = 5)
    assert(data.length == 300 && data.forall(_.length == 96))
  }

  test("moons returns two interleaved classes with near-equal sizes") {
    val (pts, lab) = SynthData.moons(400, seed = 7)
    assert(pts.length == 400 && lab.count(_ == 0) == 200 && lab.count(_ == 1) == 200)
    assert(pts.forall(_.length == 2))
    // the two moons live in known y-ranges: class 0 mostly y>0, class 1 mostly y<0.5
    val y0 = pts.zip(lab).filter(_._2 == 0).map(_._1(1))
    val y1 = pts.zip(lab).filter(_._2 == 1).map(_._1(1))
    assert(y0.sum / y0.length > y1.sum / y1.length)
  }

  test("circles returns concentric rings with the given radius factor") {
    val (pts, lab) = SynthData.circles(400, noise = 0.0, factor = 0.5, seed = 9)
    val r0 = pts.zip(lab).filter(_._2 == 0).map(p => math.hypot(p._1(0), p._1(1)))
    val r1 = pts.zip(lab).filter(_._2 == 1).map(p => math.hypot(p._1(0), p._1(1)))
    assert(r0.forall(r => math.abs(r - 1.0) < 1e-9))
    assert(r1.forall(r => math.abs(r - 0.5) < 1e-9))
  }

  test("blobs4 produces four well-separated clusters") {
    val (pts, lab) = SynthData.blobs4(400, seed = 11)
    assert(lab.distinct.sorted.toSeq == Seq(0, 1, 2, 3))
    // cluster means should be near the generating centers
    for (c <- 0 until 4) {
      val cpts = pts.zip(lab).filter(_._2 == c).map(_._1)
      val mx = cpts.map(_(0)).sum / cpts.length
      val my = cpts.map(_(1)).sum / cpts.length
      assert(math.abs(math.abs(mx) - 4.0) < 1.0 && math.abs(math.abs(my) - 4.0) < 1.0)
    }
  }
}
