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
