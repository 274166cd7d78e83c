package repro.core

import org.apache.spark.sql.SparkSession
import scala.reflect.ClassTag

/** The one row-parallel Spark dataflow (DESIGN §4). The k'-NN matrix and
  * the index build each run a function over consecutive ranges of their
  * rows, one Spark task per range, and get the per-range results back
  * concatenated in range order, so the output does not depend on task
  * scheduling.
  */
private[repro] object SparkRows {

  /** `f(shared, lo, hi)` over 2 × defaultParallelism consecutive ranges
    * [lo, hi) of the row ids `0 until n`, one Spark task each, concatenated
    * in range order. `shared` is broadcast once and destroyed before this
    * returns.
    */
  def map[S: ClassTag, T: ClassTag](spark: SparkSession, n: Int, shared: S)
                                   (f: (S, Int, Int) => Array[T]): Array[T] = {
    val sc = spark.sparkContext
    val slices = 2 * sc.defaultParallelism
    val step = math.max(1, (n + slices - 1) / slices)
    val ranges = (0 until n by step).map(lo => (lo, math.min(n, lo + step)))
    val bc = sc.broadcast(shared)
    try sc.parallelize(ranges, math.max(1, ranges.length))
      .map { case (lo, hi) => f(bc.value, lo, hi) }
      .collect().flatten
    finally bc.destroy()
  }
}
