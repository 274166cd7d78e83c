package repro

import org.scalatest.funsuite.AnyFunSuite
import java.util.Random

class RngSpec extends AnyFunSuite {

  private val seeds = Seq(0L, 1L, 42L, -7L, 0x5DEECE66DL, Long.MaxValue, Long.MinValue)

  test("Lcg48 draws java.util.Random's nextDouble stream for the first 10^5 draws") {
    for (seed <- seeds) {
      val want = new Random(seed)
      val got = new Lcg48(seed)
      var i = 0
      while (i < 100000) {
        val (a, b) = (want.nextDouble(), got.nextDouble())
        assert(java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b), s"seed $seed draw $i")
        i += 1
      }
    }
  }

  test("Lcg48 matches java.util.Random across mixed draws and a reseed") {
    for (seed <- seeds) {
      val want = new Random(seed)
      val got = new Lcg48(seed)
      for (i <- 0 until 3000) (i % 5) match {
        case 0 => assert(want.nextInt(i + 1) == got.nextInt(i + 1))
        case 1 => assert(want.nextGaussian() == got.nextGaussian())
        case 2 => assert(want.nextLong() == got.nextLong())
        case 3 => assert(want.nextBoolean() == got.nextBoolean())
        case _ => assert(want.nextDouble() == got.nextDouble())
      }
      want.setSeed(seed + 1); got.setSeed(seed + 1)
      assert(Seq.fill(100)(want.nextDouble()) == Seq.fill(100)(got.nextDouble()))
    }
  }

  test("shuffle draws the same permutation from Lcg48 as from java.util.Random") {
    val a = Array.range(0, 1000); val b = Array.range(0, 1000)
    Rng.shuffle(a, new Random(5)); Rng.shuffle(b, new Lcg48(5))
    assert(a.sameElements(b))
  }
}
