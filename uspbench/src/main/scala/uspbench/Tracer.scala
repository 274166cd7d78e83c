package uspbench

import java.io.PrintWriter
import scala.collection.mutable.ArrayBuffer

/** Spans recorded around the benchmark's own calls into each layer.
  *
  * Single-threaded: only the benchmark's main thread opens spans, so the
  * open span is the parent of the next one. Spans stay in memory and are
  * written out once, when the run ends. A disabled tracer runs the body and
  * records nothing.
  */
final class Tracer(var enabled: Boolean) {
  final class Span(val id: Int, val name: String, val parent: Int, val op: Long, val start: Long) {
    var end: Long = 0L
    def dur: Long = end - start
  }

  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private var current = -1
  /** Id of the client op the next spans belong to (-1 outside the query loop). */
  var op: Long = -1L

  def apply[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val s = new Span(spans.length, name, current, op, System.nanoTime())
      spans += s
      current = s.id
      try body
      finally { s.end = System.nanoTime(); current = s.parent }
    }

  /** Per span name: (count, total self ns), where self time is a span's
    * duration minus the part covered by its child spans.
    */
  def selfTimes: Seq[(String, Int, Long)] = {
    val childNs = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.dur)
    spans.groupBy(_.name).toSeq.map { case (name, ss) =>
      (name, ss.length, ss.map(s => s.dur - childNs(s.id)).sum)
    }.sortBy(-_._3)
  }

  /** Durations (ns) of the spans with this name, in recording order. */
  def durations(name: String): Array[Long] = spans.iterator.filter(_.name == name).map(_.dur).toArray

  def write(path: String): Unit = {
    val w = new PrintWriter(path)
    try {
      w.println("id,parent,op,name,start_ns,end_ns")
      spans.foreach(s => w.println(s"${s.id},${s.parent},${s.op},${s.name},${s.start},${s.end}"))
    } finally w.close()
  }
}
