package repro

import java.util.Random

/** Random helpers shared by the trainers and the graph partitioner. */
object Rng {

  /** In-place Fisher–Yates shuffle; draws `rng.nextInt(i + 1)` for
    * i = n−1 down to 1, so a given seed always yields the same order.
    */
  def shuffle(a: Array[Int], rng: Random): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }
}

/** `java.util.Random`'s 48-bit linear congruential generator with a plain
  * field for its state: the same stream as `new Random(seed)` draw for draw,
  * without the compare-and-set that each draw costs there. Not safe to share
  * between threads; each net owns one for its weight initialisation and
  * dropout masks.
  */
final class Lcg48(seed: Long) extends Random(seed) {
  private var state: Long = Lcg48.scramble(seed)

  // Random's constructor calls this before `state` is initialised above.
  override def setSeed(seed: Long): Unit = { super.setSeed(seed); state = Lcg48.scramble(seed) }

  override protected def next(bits: Int): Int = {
    state = (state * Lcg48.Multiplier + 0xBL) & Lcg48.Mask
    (state >>> (48 - bits)).toInt
  }
}

private object Lcg48 {
  final val Multiplier = 0x5DEECE66DL
  final val Mask = (1L << 48) - 1
  def scramble(seed: Long): Long = (seed ^ Multiplier) & Mask
}
