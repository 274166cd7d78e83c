package uspbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core._
import repro.eval.Sweep
import repro.linalg.Mat
import repro.nn.{Adam, Net}
import repro.scann.{ProductQuantizer, ScannIndex}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

sealed abstract class Op(val name: String)
object Op {
  /** `PartitionIndex.search`: probe, gather C, exact rerank of C. */
  case object Exact extends Op("exact")
  /** Probe and gather C, then `ScannIndex.search` (ADC scan of C, exact rerank of the best 100). */
  case object Adc extends Op("adc")
  val all: Seq[Op] = Seq(Exact, Adc)
}

/** One workload of the benchmark. Every workload ends with the same client:
  * one closed loop alternating `exact` and `adc` ops on its index.
  *
  * @param hier      the index is the 16×16 hierarchy, else one 16-bin model
  * @param buildLoop the offline build is timed [[Config.builds]] times before
  *                  the client runs (else the index is built in set-up)
  * @param probe     probe depth m' of the client ops
  * @param sweepQ    held-out queries used by the accuracy/|C| sweep
  * @param sweeps    timed sweeps after the client (build-sift16 sweeps after each build)
  * @param setupReps set-ups per run; `setup_s` reports their median
  */
final case class Workload(name: String, hier: Boolean, buildLoop: Boolean, probe: Int,
                          sweepQ: Int, sweeps: Int, setupReps: Int) {
  def numBins: Int = if (hier) Config.m * Config.m else Config.m
  /** m' = 1..16, and every bin, where the sweep must reach accuracy 1.0. */
  def sweepProbes: Seq[Int] = ((1 to 16) :+ numBins).distinct
}

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("build-sift16", hier = false, buildLoop = true, probe = 2, Config.nq, sweeps = 0, setupReps = 3),
    Workload("query-flat16", hier = false, buildLoop = false, probe = 2, Config.nq, sweeps = 2, setupReps = 2),
    // A hierarchy sweep runs 17 nets per query and probe depth: fewer queries, one sweep.
    Workload("query-hier256", hier = true, buildLoop = false, probe = 4, sweepQ = 400, sweeps = 1, setupReps = 2),
  )
}

/** Sizes and budgets shared by every workload (siftLite, d=32). */
object Config {
  val n = 20000
  val d = 32
  val nq = 1000
  /** Held-out points the workload seed draws its queries from. */
  val pool = 5000
  /** The indexed data is the repository's standard siftLite draw. */
  val dataSeed = 7L
  val k = 10
  val kPrime = 10
  val m = 16
  val batch = 800
  val rerank = 100
  val buildEpochs = 2
  val flatEpochs = 1
  val rootEpochs = 1
  val leafEpochs = 1
  /** Builds timed per run of build-sift16. */
  val builds = 2
  /** Queries each op type runs before the measured phase, untimed. */
  val warmupQueries = 200
  val modelSeed = 42L

  def usp(bins: Int, epochs: Int): UspConfig =
    UspConfig(m = bins, kPrime = kPrime, eta = 7.0, epochs = epochs, batchSize = batch,
      lr = 3e-3, hidden = 128, seed = modelSeed)
}

/** A built index with the timings and deterministic outputs of its build. */
final case class Built(index: PartitionIndex, knnS: Double, trainS: Double, indexS: Double,
                       finalLoss: Double, steps: Int, nets: Int) {
  def buildS: Double = knnS + trainS + indexS
  def fingerprint: String =
    s"bins=${index.binSizes.mkString(",")} final_loss=${java.lang.Double.doubleToLongBits(finalLoss)}"
}

/** Everything set-up produces: held-out queries, their ground truth, the
  * index (query workloads only) and the ScaNN-lite index over the data.
  */
final case class Setup(base: Array[Array[Double]], queries: Array[Array[Double]],
                       gt: Array[Array[Int]], built: Built, scann: ScannIndex, secs: Double) {
  def fingerprint: String =
    s"gt=${java.util.Arrays.deepHashCode(gt.asInstanceOf[Array[AnyRef]])}" +
      (if (built == null) "" else " " + built.fingerprint)
}

/** Latencies and, when traced, the per-layer split of the ops of one phase. */
final class Phase {
  private def bufs = Op.all.map(_ -> new LongBuf).toMap
  val lat: Map[Op, LongBuf] = bufs
  val probe: Map[Op, LongBuf] = bufs
  val cand: Map[Op, LongBuf] = bufs
  val tail: Map[Op, LongBuf] = bufs
  val alloc: Map[Op, LongBuf] = bufs
  var count = 0L
  var wallNs = 0L
  def qps: Double = count / (wallNs / 1e9)
}

final case class Metric(value: Double, unit: String, samples: Long)

/** One run of one workload: set-up, the measured phase, then the output
  * checks and (when traced) the per-layer figures.
  */
final class Bench(w: Workload, seed: Long, seconds: Double, trace: Boolean, outDir: String) {
  import Config._

  val tr = new Tracer(trace)
  val cores: Int = Runtime.getRuntime.availableProcessors()
  var attempted = 0L
  var failed = 0L
  val problems: ArrayBuffer[String] = ArrayBuffer.empty
  /** End-to-end metrics, and (traced run) per-layer ones, in report order. */
  val endToEnd: mutable.LinkedHashMap[String, Metric] = mutable.LinkedHashMap.empty
  val perLayer: mutable.LinkedHashMap[String, Metric] = mutable.LinkedHashMap.empty
  /** Per-layer timings of each repetition, reported as medians. */
  private val samples = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  /** First-pass result of each op type for each query. */
  private val results = Op.all.map(_ -> new Array[Array[Int]](nq)).toMap
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  var spark: SparkSession = _
  var sweepCurve: Seq[Sweep.Point] = Nil
  var env: Seq[(String, String)] = Nil
  /** Median brute-force top-k latency over the held-out queries (µs). */
  var bruteP50 = 0.0
  /** Per span name: (count, total self ns), traced run only. */
  var selfTimes: Seq[(String, Int, Long)] = Nil
  private var lastBuilt: Built = _
  /** Deterministic outputs of this run; must repeat exactly for one seed. */
  private var fingerprint = ""

  private def fail(msg: String): Unit = {
    failed += 1
    if (problems.length < 20) problems += msg
    Console.err.println(s"uspbench: check failed: $msg")
  }
  private def check(ok: Boolean, msg: => String): Unit = if (!ok) fail(msg)

  private def record(name: String, v: Double): Unit = samples.getOrElseUpdate(name, ArrayBuffer.empty) += v
  private def med(name: String): Double = Stats.median(samples(name).toArray)

  private def timed[T](name: String)(body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = tr(name)(body)
    (r, (System.nanoTime() - t0) / 1e9)
  }
  private def nanos[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, System.nanoTime() - t0)
  }
  private def allocated(): Long = threads.getCurrentThreadAllocatedBytes
  private def gcMs(): Long = {
    var s = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => s += math.max(0L, b.getCollectionTime))
    s
  }
  private def ceilDiv(a: Int, b: Int): Int = (a + b - 1) / b

  // ─── set-up ────────────────────────────────────────────────────────────

  private def startSpark(localDir: String): Unit = {
    spark = tr("spark.session") {
      SparkSession.builder
        .master(s"local[$cores]")
        .appName("uspbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", localDir)
        .config("spark.sql.shuffle.partitions", cores.toString)
        .config("spark.log.level", "WARN")
        .getOrCreate()
    }
    spark.sparkContext.setLogLevel("WARN")
    // A small k-NN job pays Spark's first-job costs (closure serialisation,
    // broadcast, task threads) before anything is timed.
    val (_, warmS) = timed("spark.warmup") {
      val rng = new java.util.Random(seed)
      val tiny = Array.fill(500, d)(rng.nextGaussian())
      KnnMatrix.queryKnn(spark, tiny, tiny.take(16), 5)
    }
    record("spark.warmup_s", warmS)
  }

  private def recordBuilt(b: Built): Unit = {
    record("knn.self_s", b.knnS)
    record("train.s", b.trainS)
    record("index.build_s", b.indexS)
    record("build_s", b.buildS)
  }

  private def checkBins(index: PartitionIndex): Unit =
    check(index.binSizes.sum == n, s"bin sizes sum to ${index.binSizes.sum}, not n=$n")

  /** k'-NN on Spark, one 16-bin USP model, index built on Spark. */
  private def buildFlat(base: Array[Array[Double]], epochs: Int): Built = {
    val (knn, knnS) = timed("knn.self")(KnnMatrix.selfKnn(spark, base, kPrime))
    val (model, trainS) = timed("train")(UspTrainer.train(base, knn, usp(m, epochs)))
    val (index, indexS) = timed("index.build")(PartitionIndex.build(new ModelPartitioner(model.net, m), base, spark))
    check(index.assignments.sameElements(model.assignments),
      "Spark-built assignments differ from the trainer's driver assignments")
    checkBins(index)
    Built(index, knnS, trainS, indexS, model.lossTrace.last, epochs * ceilDiv(n, batch), 1)
  }

  /** k'-NN on Spark, 16×16 hierarchy (17 nets), index built on Spark. */
  private def buildHier(base: Array[Array[Double]]): Built = {
    val (knn, knnS) = timed("knn.self")(KnnMatrix.selfKnn(spark, base, kPrime))
    val (t, trainS) = timed("train")(Hierarchical.train(base, knn, usp(m, rootEpochs), m, leafEpochs))
    val (index, indexS) = timed("index.build")(PartitionIndex.build(t.partitioner, base, spark))
    // Driver-side assignment of each point: its root bin, then its leaf's
    // assignment of it (leaf subsets keep dataset order).
    val pos = new Array[Int](m)
    val driver = t.root.assignments.map { rb =>
      val lb = t.leaves(rb).assignments(pos(rb)); pos(rb) += 1; rb * m + lb
    }
    check(index.assignments.sameElements(driver),
      "Spark-built assignments differ from the hierarchy's driver assignments")
    checkBins(index)
    val leafSteps = pos.map(sz => if (sz <= math.max(2, m)) 0 else leafEpochs * ceilDiv(sz, math.min(batch, sz))).sum
    Built(index, knnS, trainS, indexS, t.root.lossTrace.last, rootEpochs * ceilDiv(n, batch) + leafSteps, 1 + m)
  }

  private def setupRep(): Setup = {
    val t0 = System.nanoTime()
    val (base, queries, gt, built, scann) = tr("setup") {
      // The first n points are indexed; the workload seed draws the queries
      // from the held-out rest, so one index serves every seed.
      val ((base, queries), genS) = timed("data.gen") {
        val all = SynthData.siftLite(n + pool, seed = dataSeed, d = d)
        val held = Array.range(n, n + pool)
        val rng = new java.util.Random(seed)
        for (i <- 0 until nq) {
          val j = i + rng.nextInt(pool - i)
          val t = held(i); held(i) = held(j); held(j) = t
        }
        (all.take(n), held.take(nq).map(all))
      }
      record("data.gen_s", genS)
      val (gt, gtS) = timed("knn.gt")(KnnMatrix.queryKnn(spark, base, queries, k))
      record("knn.gt_s", gtS)
      val built =
        if (w.buildLoop) null
        else { val b = if (w.hier) buildHier(base) else buildFlat(base, flatEpochs); recordBuilt(b); b }
      val (scann, fitS) = timed("scann.fit") {
        new ScannIndex(base, ProductQuantizer.fit(base, numSub = 8, k = 16, hPar = 4.0, hOrth = 1.0))
      }
      record("scann.fit_s", fitS)
      (base, queries, gt, built, scann)
    }
    Setup(base, queries, gt, built, scann, (System.nanoTime() - t0) / 1e9)
  }

  // ─── client ops ────────────────────────────────────────────────────────

  private def runOp(s: Setup, index: PartitionIndex, op: Op, q: Array[Double]): Array[Int] = op match {
    case Op.Exact => index.search(s.base, q, k, w.probe)
    case Op.Adc   => s.scann.search(q, k, rerank, index.candidates(q, w.probe))
  }

  /** The op decomposed from outside: probe ranking, candidate gather, then
    * the op itself; the differences give the time of each stage. The first
    * call on a query runs with colder caches, so every other query swaps the
    * first two calls.
    */
  private def tracedOp(ph: Phase, s: Setup, index: PartitionIndex, op: Op, q: Array[Double],
                       probeFirst: Boolean): Array[Int] =
    tr("op." + op.name) {
      def probe() = nanos(tr("query.probe")(index.partitioner.probeOrder(q)))._2
      val probeNs0 = if (probeFirst) probe() else 0L
      val a0 = allocated()
      val (cand, candNs) = nanos(tr("query.candidates")(index.candidates(q, w.probe)))
      val candBytes = allocated() - a0
      val probeNs = if (probeFirst) probeNs0 else probe()
      val a1 = allocated()
      val (r, tailNs) = op match {
        case Op.Exact => nanos(tr("query.search")(index.search(s.base, q, k, w.probe)))
        case Op.Adc   => nanos(tr("scann.search")(s.scann.search(q, k, rerank, cand)))
      }
      val tailBytes = allocated() - a1
      ph.probe(op) += probeNs
      ph.cand(op) += candNs
      ph.tail(op) += tailNs
      // an op's allocation: `search` itself, or the gather plus the ADC search
      ph.alloc(op) += (if (op == Op.Exact) tailBytes else candBytes + tailBytes)
      r
    }

  /** Closed loop, one client: the next op starts when the previous one has
    * returned. Runs for `secs` and at least one pass over the queries; query
    * `qi` gets one op of each type in turn. Results of later passes must
    * equal the first pass's.
    */
  private def runOps(s: Setup, index: PartitionIndex, secs: Double, traced: Boolean): Phase = {
    val ph = new Phase
    val ops = Op.all
    val minOps = ops.length.toLong * nq
    val limit = (secs * 1e9).toLong
    val t0 = System.nanoTime()
    var j = 0L
    while (j < minOps || System.nanoTime() - t0 < limit) {
      val op = ops((j % ops.length).toInt)
      val qi = ((j / ops.length) % nq).toInt
      val q = s.queries(qi)
      attempted += 1
      try {
        val a = System.nanoTime()
        val r =
          if (traced) { tr.op = j; val r = tracedOp(ph, s, index, op, q, qi % 2 == 0); tr.op = -1; r }
          else runOp(s, index, op, q)
        ph.lat(op) += System.nanoTime() - a
        val first = results(op)(qi)
        if (first == null) results(op)(qi) = r
        else check(java.util.Arrays.equals(first, r), s"${op.name} result for query $qi changed between passes")
      } catch { case NonFatal(e) => fail(s"${op.name} op on query $qi threw $e") }
      j += 1
    }
    ph.wallNs = System.nanoTime() - t0
    ph.count = j
    ph
  }

  /** Lets JIT compilation of the op path finish before anything is timed;
    * these ops are attempted and their results checked like any other.
    */
  private def warmUp(s: Setup, index: PartitionIndex): Unit = tr("query.warmup") {
    for (qi <- 0 until warmupQueries; op <- Op.all) {
      attempted += 1
      try results(op)(qi) = runOp(s, index, op, s.queries(qi))
      catch { case NonFatal(e) => fail(s"${op.name} op on query $qi threw $e") }
    }
  }

  /** Output checks of every op, outside the timed interval: an `exact`
    * result is the exact top-k of C; an `adc` result is min(k, |C|)
    * distinct ids of C. Returns recall per op type against ground truth.
    */
  private def checkResults(s: Setup, index: PartitionIndex): Map[Op, Double] = tr("check") {
    val mark = new Array[Boolean](n)
    val hits = mutable.Map.empty[Op, Long].withDefaultValue(0L)
    var candSum = 0L
    var useful = 0L
    var qi = 0
    while (qi < nq) {
      val q = s.queries(qi)
      val cand = index.candidates(q, w.probe)
      cand.foreach(mark(_) = true)
      val g = s.gt(qi).toSet
      candSum += cand.length
      useful += s.gt(qi).count(mark)
      results.foreach { case (op, rs) =>
        val r = rs(qi)
        val want = math.min(k, cand.length)
        var ok = r != null && r.length == want && r.distinct.length == want && r.forall(mark)
        if (ok && op == Op.Exact) {
          val top = cand.map(i => KnnMatrix.sqDist(s.base(i), q)).sorted.take(want)
          ok = r.map(i => KnnMatrix.sqDist(s.base(i), q)).sorted.sameElements(top)
        }
        check(ok, s"${op.name} result for query $qi is not ${if (op == Op.Exact) "the exact top-k of C" else "k distinct ids of C"}")
        if (r != null) hits(op) += r.count(g)
      }
      cand.foreach(mark(_) = false)
      qi += 1
    }
    record("query.cand_mean", candSum.toDouble / nq)
    record("query.useful_ratio", useful.toDouble / candSum)
    results.keys.map(op => op -> hits(op).toDouble / (nq.toLong * k)).toMap
  }

  /** Exact brute-force top-k of every query: the reference every
    * partitioned path is compared with. Also re-checks the Spark ground truth.
    */
  private def bruteReference(s: Setup): Array[Long] = tr("knn.brute") {
    val lat = new Array[Long](nq)
    val a0 = allocated()
    var qi = 0
    while (qi < nq) {
      val t0 = System.nanoTime()
      val r = KnnMatrix.topK(s.base, s.queries(qi), k, -1)
      lat(qi) = System.nanoTime() - t0
      check(r.sameElements(s.gt(qi)), s"brute-force top-k of query $qi differs from the Spark ground truth")
      qi += 1
    }
    record("jvm.alloc_kb_per_op.brute", (allocated() - a0) / 1024.0 / nq)
    lat
  }

  private def runSweep(index: PartitionIndex, s: Setup): (Seq[Sweep.Point], Double) = {
    val (pts, secs) = timed("sweep")(Sweep.run(index, n, s.queries.take(w.sweepQ), s.gt.take(w.sweepQ), w.sweepProbes))
    check(pts.sliding(2).forall { case Seq(a, b) => b.accuracy >= a.accuracy },
      "sweep accuracy drops as m' grows: " + pts.map(_.accuracy).mkString(","))
    val last = pts.last
    check(last.probe == w.numBins && last.accuracy == 1.0 && last.avgCand == n,
      s"sweep at m'=${last.probe} has accuracy ${last.accuracy} and |C|=${last.avgCand}, not 1.0 and n")
    (pts, secs)
  }

  private def candAt85(pts: Seq[Sweep.Point]): Double =
    Sweep.candidateSizeAtAccuracy(pts, 0.85).getOrElse { fail("sweep never reaches 85% accuracy"); Double.NaN }

  // ─── measured phases ───────────────────────────────────────────────────

  /** The offline build, each time followed by its sweep: `build_s` and
    * `sweep_s` of build-sift16. Returns the last index built.
    */
  private def buildLoop(s: Setup): Built = {
    for (_ <- 1 to builds) {
      attempted += 1
      val b = buildFlat(s.base, buildEpochs)
      recordBuilt(b)
      sweep(s, b)
    }
    lastBuilt
  }

  /** One timed sweep; its outputs must equal every earlier sweep's of the run. */
  private def sweep(s: Setup, b: Built): Unit = {
    val (pts, secs) = runSweep(b.index, s)
    record("sweep_s", secs)
    val fp = b.fingerprint + " sweep=" + pts.mkString(",")
    if (fingerprint.nonEmpty) check(fp == fingerprint, "build or sweep outputs differ between two runs of one seed")
    fingerprint = fp
    sweepCurve = pts
    lastBuilt = b
  }

  /** Runs the workload; fills `endToEnd` (untraced) or `perLayer` (traced). */
  def run(): Unit = {
    tr("run")(runWorkload())
    if (trace) {
      selfTimes = tr.selfTimes
      // Layer spans' self time as a share of the traced run's wall time;
      // the rest is the benchmark's own loop and bookkeeping.
      val untraced = tr.durations("untraced").sum
      val structural = Set("run", "setup") ++ Op.all.map("op." + _.name)
      val unaccounted = selfTimes.filter(t => structural(t._1)).map(_._3).sum
      perLayer("trace.coverage") =
        Metric(1.0 - unaccounted.toDouble / (tr.spans.head.dur - untraced), "ratio", tr.spans.length)
      tr.write(new java.io.File(outDir, s"trace-${w.name}-seed$seed.csv").getPath)
    }
  }

  private def runWorkload(): Unit = {
    startSpark(new java.io.File(outDir, "spark-local").getPath)
    val readyS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val reps = (1 to w.setupReps).map(_ => setupRep())
    check(reps.map(_.fingerprint).distinct.length == 1, "set-up outputs differ between repetitions: " +
      reps.map(_.fingerprint).distinct.mkString(" | "))
    val s = reps.last
    val setupS = readyS + Stats.median(reps.map(_.secs).toArray)
    env = environment

    val index = if (w.buildLoop) buildLoop(s).index else s.built.index
    warmUp(s, index)

    // client phase; a traced run measures its first half untraced. The
    // set-up's garbage is collected first, so that no collection of it lands
    // in the timed window; the ops' own allocation still is.
    System.gc()
    val gc0 = gcMs()
    val (client, overheadPct) =
      if (!trace) (runOps(s, index, seconds, traced = false), Double.NaN)
      else {
        val plain = tr("untraced") {
          tr.enabled = false
          try runOps(s, index, seconds / 2, traced = false) finally tr.enabled = true
        }
        val traced = runOps(s, index, seconds / 2, traced = true)
        (traced, (plain.qps / traced.qps - 1) * 100)
      }
    val gcPhase = gcMs() - gc0

    val brute = bruteReference(s)
    val recall = checkResults(s, index)
    for (_ <- 1 to w.sweeps) sweep(s, s.built)
    val cand85 = candAt85(sweepCurve)
    fingerprint = s.fingerprint + " " + fingerprint +
      s" recall_exact=${recall(Op.Exact)} recall_adc=${recall(Op.Adc)} cand_at_85=$cand85"
    compareWithEarlierRun()

    def lat(op: Op, q: Double): Metric = {
      val xs = Stats.us(client.lat(op).toArray)
      Metric(if (q == 0.5) Stats.median(xs) else Stats.percentile(xs, q), "us", xs.length)
    }
    endToEnd ++= Seq(
      "setup_s" -> Metric(setupS, "s", w.setupReps),
      "build_s" -> Metric(med("build_s"), "s", samples("build_s").length),
      "sweep_s" -> Metric(med("sweep_s"), "s", samples("sweep_s").length),
      "cand_at_85" -> Metric(cand85, "count", w.sweepQ),
      "exact_p50_us" -> lat(Op.Exact, 0.5),
      "exact_p99_us" -> lat(Op.Exact, 0.99),
      "adc_p50_us" -> lat(Op.Adc, 0.5),
      "adc_p99_us" -> lat(Op.Adc, 0.99),
      "qps" -> Metric(client.qps, "1/s", client.count),
      "recall_exact" -> Metric(recall(Op.Exact), "ratio", nq),
      "recall_adc" -> Metric(recall(Op.Adc), "ratio", nq),
    )
    bruteP50 = Stats.median(Stats.us(brute))

    if (trace) {
      kernelProbes(s.base)
      layerMetrics(s, index, client, brute, gcPhase, overheadPct)
    }
  }

  /** Train-step kernels on a fresh net of the trained shape, which the
    * measured ops never use: neighbour inference at batch·k' rows,
    * forward+backward at batch size, the loss, and one Adam step.
    */
  private def kernelProbes(base: Array[Array[Double]]): Unit = tr("nn.probe") {
    val cfg = usp(m, 1).copy(seed = modelSeed + 1)
    val net = UspTrainer.defaultNet(d, cfg)
    val opt = new Adam(net.params, cfg.lr)
    val rng = new java.util.Random(seed)
    val x = Mat.fromRows(base.toIndexedSeq)
    val xb = x.selectRows(Array.fill(batch)(rng.nextInt(n)))
    val xn = x.selectRows(Array.fill(batch * kPrime)(rng.nextInt(n)))
    val weights = Array.fill(batch)(1.0)
    def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6
    for (_ <- 1 to 7) {
      var t0 = System.nanoTime()
      val nbBins = net.predictProbs(xn).argmaxRows
      record("nn.nb_infer_ms", ms(t0))
      val targets = Mat.zeros(batch, m)
      var o = 0
      while (o < nbBins.length) { targets(o / kPrime, nbBins(o)) += 1.0 / kPrime; o += 1 }
      t0 = System.nanoTime()
      val probs = Net.softmaxRows(net.forward(xb, training = true))
      val fwd = ms(t0)
      t0 = System.nanoTime()
      val (_, dz) = UspLoss.lossAndGrad(probs, targets, weights, cfg.eta)
      record("loss.ms", ms(t0))
      net.zeroGrad()
      t0 = System.nanoTime()
      net.backward(dz)
      record("nn.fwd_bwd_ms", fwd + ms(t0))
      t0 = System.nanoTime()
      opt.step()
      record("adam.ms", ms(t0))
    }
  }

  private def layerMetrics(s: Setup, index: PartitionIndex, ph: Phase, brute: Array[Long],
                           gcPhase: Long, overheadPct: Double): Unit = {
    def put(name: String, v: Double, unit: String, n: Long): Unit = perLayer(name) = Metric(v, unit, n)
    def putMed(name: String, unit: String): Unit = put(name, med(name), unit, samples(name).length)
    def us(f: Phase => Map[Op, LongBuf], ops: Seq[Op]): Array[Double] =
      ops.flatMap(op => Stats.us(f(ph)(op).toArray)).toArray
    // per-op differences of two cumulative stage times (µs)
    def diffs(f: Phase => Map[Op, LongBuf], g: Phase => Map[Op, LongBuf], ops: Seq[Op]): Array[Double] =
      us(f, ops).zip(us(g, ops)).map { case (a, b) => a - b }
    val both = Op.all
    val built = lastBuilt
    val trainS = med("train.s")

    Seq("data.gen_s", "spark.warmup_s", "knn.gt_s", "knn.self_s").foreach(putMed(_, "s"))
    put("knn.brute_p50_us", bruteP50, "us", brute.length)
    putMed("train.s", "s")
    put("train.nets", built.nets, "count", 1)
    put("train.steps", built.steps, "count", 1)
    put("train.step_ms", trainS * 1e3 / built.steps, "ms", built.steps)
    put("train.final_loss", built.finalLoss, "loss", 1)
    Seq("nn.nb_infer_ms", "nn.fwd_bwd_ms", "loss.ms", "adam.ms").foreach(putMed(_, "ms"))
    putMed("index.build_s", "s")
    put("index.bin_min", index.binSizes.min, "count", 1)
    put("index.bin_max", index.binSizes.max, "count", 1)
    putMed("scann.fit_s", "s")
    val probe = us(_.probe, both)
    put("query.probe_us", Stats.median(probe), "us", probe.length)
    val gather = diffs(_.cand, _.probe, both)
    put("query.gather_us", Stats.median(gather), "us", gather.length)
    val rerank = diffs(_.tail, _.cand, Seq(Op.Exact))
    put("query.rerank_us", Stats.median(rerank), "us", rerank.length)
    val adc = us(_.tail, Seq(Op.Adc))
    put("scann.adc_us", Stats.median(adc), "us", adc.length)
    putMed("query.cand_mean", "count")
    putMed("query.useful_ratio", "ratio")
    both.foreach { op =>
      val kb = us(_.alloc, Seq(op)).map(_ * 1e3 / 1024.0)
      put(s"jvm.alloc_kb_per_op.${op.name}", kb.sum / kb.length, "KB", kb.length)
    }
    putMed("jvm.alloc_kb_per_op.brute", "KB")
    put("jvm.gc_ms", gcPhase.toDouble, "ms", 1)
    sweepCurve.take(16).foreach(p => put(s"sweep.acc_m${p.probe}", p.accuracy, "ratio", w.sweepQ))
    sweepCurve.take(16).foreach(p => put(s"sweep.cand_m${p.probe}", p.avgCand, "count", w.sweepQ))
    put("trace.overhead_pct", overheadPct, "%", 1)
  }

  private def epochs: String =
    if (w.hier) s"root=$rootEpochs leaf=$leafEpochs" else s"${if (w.buildLoop) buildEpochs else flatEpochs}"

  private def environment: Seq[(String, String)] = Seq(
    "workload" -> Json.str(w.name),
    "seed" -> seed.toString,
    "seconds" -> Json.num(seconds),
    "trace" -> trace.toString,
    "nproc" -> cores.toString,
    "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
    "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
    "spark" -> Json.str(spark.version),
    "spark_default_parallelism" -> spark.sparkContext.defaultParallelism.toString,
    "data" -> Json.str(s"siftLite seed=$dataSeed"), "n" -> n.toString, "d" -> d.toString,
    "queries" -> Json.str(s"$nq drawn by the workload seed from $pool held-out points"), "k" -> k.toString,
    "k_prime" -> kPrime.toString, "bins" -> w.numBins.toString, "m_prime" -> w.probe.toString,
    "epochs" -> Json.str(epochs), "batch" -> batch.toString, "rerank" -> rerank.toString,
    "setup_reps" -> w.setupReps.toString, "model_seed" -> modelSeed.toString,
  )

  /** The deterministic outputs of one seed must repeat exactly across runs:
    * the first run of a seed in this checkout stores them, later runs compare.
    */
  private def compareWithEarlierRun(): Unit = {
    val f = new java.io.File(outDir, s"fingerprint-${w.name}-seed$seed.txt")
    if (f.exists) {
      val before = new String(java.nio.file.Files.readAllBytes(f.toPath), "UTF-8")
      check(before == fingerprint, s"deterministic outputs differ from an earlier run of seed $seed")
    } else java.nio.file.Files.write(f.toPath, fingerprint.getBytes("UTF-8"))
  }
}
