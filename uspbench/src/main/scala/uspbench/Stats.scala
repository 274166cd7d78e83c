package uspbench

/** Growable primitive buffer, so timing a loop allocates no boxes. */
final class LongBuf {
  private var a = new Array[Long](1024)
  var size = 0
  def +=(v: Long): Unit = {
    if (size == a.length) a = java.util.Arrays.copyOf(a, size * 2)
    a(size) = v; size += 1
  }
  def toArray: Array[Long] = java.util.Arrays.copyOf(a, size)
}

object Stats {
  /** Nearest-rank percentile, `q` in (0, 1]. */
  def percentile(xs: Array[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.length).toInt - 1))
  }

  def median(xs: Array[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def us(ns: Array[Long]): Array[Double] = ns.map(_ / 1e3)
}

object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').result()
  }

  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString

  def obj(kvs: Iterable[(String, String)]): String =
    kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(vs: Iterable[String]): String = vs.mkString("[", ", ", "]")
}
