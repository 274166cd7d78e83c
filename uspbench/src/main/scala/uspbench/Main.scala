package uspbench

import java.io.{File, PrintWriter}
import scala.util.control.NonFatal

/** Entry point of one benchmark run:
  *
  *   uspbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  *
  * Prints a report and, as its last line, one JSON object with `correct`,
  * `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
  * per-layer metrics traced). The full record, environment included, goes
  * to `<out>/result-<workload>-seed<n>-trace<0|1>.json`.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workload.all.find(wl => opts.get("workload").contains(wl.name)).getOrElse {
      Console.err.println(s"usage: --workload ${Workload.all.map(_.name).mkString("|")} " +
        "--seed <n> --seconds <s> --trace <0|1> --out <dir>")
      sys.exit(2)
    }
    val outDir = new File(opts.getOrElse("out", "out"))
    outDir.mkdirs()
    val bench = new Bench(w, opts.getOrElse("seed", "1").toLong, opts.getOrElse("seconds", "10").toDouble,
      opts.getOrElse("trace", "0") == "1", outDir.getPath)
    val code =
      try { bench.run(); report(bench, w, outDir); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
      finally if (bench.spark != null) bench.spark.stop()
    sys.exit(code)
  }

  private def metricsJson(ms: Iterable[(String, Metric)], withSamples: Boolean): String =
    Json.obj(ms.map { case (name, m) =>
      name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)) ++
        (if (withSamples) Seq("samples" -> m.samples.toString) else Nil))
    })

  private def report(b: Bench, w: Workload, outDir: File): Unit = {
    val traced = b.tr.enabled
    val metrics = if (traced) b.perLayer else b.endToEnd
    println("env " + Json.obj(b.env))
    metrics.foreach { case (name, m) => println(f"metric $name%-28s ${m.value}%14.4f ${m.unit}%-6s n=${m.samples}") }
    // Brute-force reference row: a partitioned path slower than an exact
    // scan of all n points has not earned a speed claim.
    println(f"reference knn.brute_p50_us ${b.bruteP50}%.1f us (exact scan of all n points)")
    if (!traced) Seq("exact_p50_us", "adc_p50_us").foreach { name =>
      val v = b.endToEnd(name).value
      println(f"reference $name $v%.1f us = ${v / b.bruteP50}%.2fx brute force" +
        (if (v > b.bruteP50) "  SLOWER THAN BRUTE FORCE" else ""))
    }
    b.sweepCurve.foreach(p => println(f"sweep m'=${p.probe}%-3d accuracy=${p.accuracy}%.4f |C|=${p.avgCand}%.1f"))
    if (traced) {
      val total = b.selfTimes.map(_._3).sum.toDouble
      println("self time by span (share of the run's wall time):")
      b.selfTimes.foreach { case (name, count, ns) =>
        println(f"  $name%-18s n=$count%-7d ${ns / 1e9}%9.3f s ${100 * ns / total}%5.1f %%")
      }
    }
    b.problems.foreach(p => println("problem " + p))

    val head = Seq("correct" -> (b.failed == 0).toString, "attempted" -> b.attempted.toString,
      "failed" -> b.failed.toString)
    val full = new PrintWriter(new File(outDir, s"result-${w.name}-seed${b.env.toMap.apply("seed")}-trace${if (traced) 1 else 0}.json"))
    try full.println(Json.obj(head ++ Seq(
      "env" -> Json.obj(b.env),
      "metrics" -> metricsJson(metrics, withSamples = true),
      "reference" -> Json.obj(Seq("knn.brute_p50_us" -> Json.num(b.bruteP50))),
      "sweep" -> Json.arr(b.sweepCurve.map(p => Json.obj(Seq("m_prime" -> p.probe.toString,
        "accuracy" -> Json.num(p.accuracy), "cand" -> Json.num(p.avgCand))))),
      "self_s" -> Json.obj(b.selfTimes.map { case (name, _, ns) => name -> Json.num(ns / 1e9) }),
      "problems" -> Json.arr(b.problems.map(Json.str)),
    )))
    finally full.close()
    println(Json.obj(head :+ ("metrics" -> metricsJson(metrics, withSamples = false))))
  }
}
