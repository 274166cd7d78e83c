package repro.eval

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.baselines._
import repro.cluster.{ClusterMetrics, Dbscan, Spectral}
import repro.core._
import repro.nn.Net
import repro.scann.{ProductQuantizer, ScannIndex}

/** One experiment harness per evaluation table. The `bench` suites call
  * these and print their rows, so `sbt "bench/test"` is the one way to get
  * each table's numbers.
  *
  * Scales are parameters (benches run siftLite n=20k; unit-ish smoke calls
  * can shrink them) — see DESIGN.md §5 for the per-table mapping.
  */
object Tables {

  // ───────────────────────────── Table 2 ─────────────────────────────

  final case class Table2Row(method: String, params: Long, paperParams: String)

  /** Learnable parameters when dividing SIFT (d=128) into 256 bins. The
    * paper's 256-bin models are 16×16 hierarchies of MLPs (§5.4.1): a
    * root plus 16 leaves, counted on the nets themselves; Neural LSH uses
    * hidden size 512, ours 128. K-means "parameters" are its m·d centroid
    * coordinates.
    */
  def table2(): Seq[Table2Row] = {
    val (d, m1, m2) = (128, 16, 16)
    def hierarchy(hidden: Int): Long =
      Net.mlp(d, hidden, m1, seed = 0).paramCount + m1 * Net.mlp(d, hidden, m2, seed = 0).paramCount
    Seq(
      Table2Row("Neural LSH (hidden 512)", hierarchy(512), "729k"),
      Table2Row("Ours (hidden 128)", hierarchy(128), "183k"),
      Table2Row("K-Means", d.toLong * m1 * m2, "33k"))
  }

  // ───────────────────────────── Table 3 ─────────────────────────────

  final case class Table3Row(dataset: String, bins: Int, minutes: Double,
                             eta: Double, paperMinutes: Double, paperEta: Double)

  /** Offline training times for {mnistLite, siftLite} × {16, 256(16×16)}.
    * Times are wall-clock for the 3-model ensemble (16 bins) or the
    * hierarchical tree (256 bins), matching the paper's setup of "three base
    * models in the ensemble".
    */
  def table3(spark: SparkSession, nMnist: Int = 6000, nSift: Int = 20000,
             epochs: Int = 40): Seq[Table3Row] = {
    def run(name: String, data: Array[Array[Double]], bins: Int,
            eta: Double, paperMin: Double, paperEta: Double): Table3Row = {
      val knn = KnnMatrix.selfKnn(spark, data, 10)
      val cfg = UspConfig(m = 16, eta = eta, epochs = epochs,
        batchSize = math.max(256, (data.length * 0.04).toInt), lr = 3e-3, seed = 7)
      val t0 = System.nanoTime()
      if (bins == 16) Ensemble.train(data, knn, cfg, e = 3)
      else
        // three hierarchical 16×16 base models — the paper's Table 3 times
        // "three base models in the ensemble" at each configuration
        for (j <- 0 until 3)
          Hierarchical.train(data, knn, cfg.copy(seed = cfg.seed + 1000L * j),
            m2 = 16, leafEpochs = math.max(10, epochs / 2))
      val minutes = (System.nanoTime() - t0) / 6e10
      Table3Row(name, bins, minutes, eta, paperMin, paperEta)
    }
    val mnist = SynthData.mnistLite(nMnist)
    val sift = SynthData.siftLite(nSift)
    Seq(
      run("MNIST-lite", mnist, 16, eta = 7, paperMin = 2, paperEta = 7),
      run("MNIST-lite", mnist, 256, eta = 30, paperMin = 12, paperEta = 30),
      run("SIFT-lite", sift, 16, eta = 7, paperMin = 6, paperEta = 7),
      run("SIFT-lite", sift, 256, eta = 10, paperMin = 40, paperEta = 10),
    )
  }

  // ───────────────────────────── Table 4 ─────────────────────────────

  final case class SweepResult(method: String, points: Seq[Sweep.Point])

  final case class Table4Row(method: String, candAt85: Double, oursCandAt85: Double,
                             decreasePct: Double, paperDecreasePct: Double)

  /** All the pieces of the Figure-5/Table-4 experiment at SIFT-lite, 16
    * bins: sweeps for USP (1 and 3 models), Neural LSH, K-means and
    * cross-polytope LSH.
    */
  def sift16Sweeps(spark: SparkSession, n: Int = 20000, nQueries: Int = 500,
                   epochs: Int = 50, seed: Long = 7): Seq[SweepResult] = {
    val m = 16
    val data = SynthData.siftLite(n, seed = seed)
    val queries = SynthData.siftLite(nQueries, seed = seed + 100)
    val knn = KnnMatrix.selfKnn(spark, data, 10)
    val gt = KnnMatrix.queryKnn(spark, data, queries, 10)
    val probes = (1 to m)

    val cfg = UspConfig(m = m, eta = 7.0, epochs = epochs,
      batchSize = math.max(256, (n * 0.04).toInt), lr = 3e-3, hidden = 128, seed = seed)
    val ens = Ensemble.train(data, knn, cfg, e = 3)
    val uspSingle = ens.indexes.head
    val uspEns = new EnsembleIndex(ens, data)

    // the supervised baseline gets a generous budget (it has fixed labels,
    // so more epochs can only help it fit the graph partition better)
    val nlsh = NeuralLsh.train(data, knn, m, hidden = 512, epochs = epochs * 2,
      batchSize = 512, lr = 2e-2, seed = seed)
    val nlshIdx = PartitionIndex.build(nlsh.partitioner, data, spark)

    val km = KMeansPartitioner.fitLocal(data, m, iters = 25, seed = seed)
    val kmIdx = PartitionIndex.build(km, data, spark)

    val cp = new CrossPolytopeLsh(data(0).length, m, seed = seed)
    val cpIdx = PartitionIndex.build(cp, data, spark)

    def sweep(idx: CandidateIndex) = Sweep.run(idx, n, queries, gt, probes)
    Seq(
      SweepResult("Ours (1 model)", sweep(uspSingle)),
      SweepResult("Ours (ensemble of 3)", sweep(uspEns)),
      SweepResult("Neural LSH", sweep(nlshIdx)),
      SweepResult("K-Means", sweep(kmIdx)),
      SweepResult("Cross-polytope LSH", sweep(cpIdx)),
    )
  }

  /** Table 4: relative decrease of our ensemble's |C| at 85% 10-NN accuracy
    * versus Neural LSH and K-means.
    */
  def table4(sweeps: Seq[SweepResult], targetAcc: Double = 0.85): Seq[Table4Row] = {
    val byName = sweeps.map(s => s.method -> s.points).toMap
    val ours = Sweep.candidateSizeAtAccuracy(byName("Ours (ensemble of 3)"), targetAcc)
      .getOrElse(Double.NaN)
    def row(method: String, paperPct: Double): Table4Row = {
      val c = Sweep.candidateSizeAtAccuracy(byName(method), targetAcc).getOrElse(Double.NaN)
      Table4Row(method, c, ours, (1 - ours / c) * 100, paperPct)
    }
    Seq(row("Neural LSH", 33.0), row("K-Means", 38.0))
  }

  // ───────────────────────────── Table 5 ─────────────────────────────

  final case class Table5Row(dataset: String, method: String, ari: Double,
                             accuracy: Double, paperVerdict: String)

  /** Clustering comparison on the 2-D toy datasets. The paper shows
    * pictures; "paperVerdict" records what its Table 5 pictures show
    * (whether the method recovers the natural clusters).
    */
  def table5(spark: SparkSession, n: Int = 1000, epochs: Int = 500): Seq[Table5Row] = {
    val sets: Seq[(String, Array[Array[Double]], Array[Int], Int, Double, Int)] = Seq(
      // (name, points, truth, k, dbscanEps, dbscanMinPts)
      { val (p, l) = SynthData.moons(n, noise = 0.05, seed = 13); ("moons", p, l, 2, 0.2, 5) },
      { val (p, l) = SynthData.circles(n, noise = 0.04, seed = 17); ("circles", p, l, 2, 0.15, 4) },
      { val (p, l) = SynthData.blobs4(n, seed = 19); ("blobs4", p, l, 4, 1.0, 5) },
    )
    // what the paper's picture grid shows per (dataset, method)
    val verdict = Map(
      ("moons", "K-Means") -> "fails (convex split)",
      ("moons", "DBSCAN") -> "recovers",
      ("moons", "Spectral") -> "recovers",
      ("moons", "Ours") -> "recovers",
      ("circles", "K-Means") -> "fails (convex split)",
      ("circles", "DBSCAN") -> "recovers",
      ("circles", "Spectral") -> "recovers",
      ("circles", "Ours") -> "recovers",
      ("blobs4", "K-Means") -> "recovers",
      ("blobs4", "DBSCAN") -> "recovers",
      ("blobs4", "Spectral") -> "recovers",
      ("blobs4", "Ours") -> "recovers",
    )
    sets.flatMap { case (name, pts, truth, k, eps, minPts) =>
      val km = KMeansPartitioner.fitLocal(pts, k, iters = 50, seed = 3)
      val kmLabels = pts.map(km.assign)
      val dbLabels = Dbscan.fit(pts, eps, minPts)
      val spLabels = Spectral.fit(pts, k, knnK = 10, seed = 3)
      val knn = KnnMatrix.selfKnn(spark, pts, 10)
      val usp = uspCluster(pts, knn, k, epochs)
      def row(method: String, labels: Array[Int]) = Table5Row(
        name, method, ClusterMetrics.ari(labels, truth),
        ClusterMetrics.matchAccuracy(labels, truth), verdict((name, method)))
      Seq(
        row("K-Means", kmLabels),
        row("DBSCAN", dbLabels),
        row("Spectral", spLabels),
        row("Ours", usp),
      )
    }
  }

  /** USP as a clustering algorithm: overcluster-then-merge, fully
    * unsupervised. A direct m=k run of a smooth parametric model tends to
    * settle into smooth-boundary partitions (a diameter cut of concentric
    * rings is a near-tied local minimum of the loss), so we use the method
    * the way its hierarchical variant suggests: learn a FINE partition
    * (m = 8k bins — low-cut arcs/patches of the manifolds), then merge bins
    * agglomeratively along the k'-NN edge structure (merge the pair of
    * groups with the highest inter-group edge density until k remain).
    * Merging never consults labels; disconnected manifolds have zero
    * inter-group edges, so they can never be merged together while patches
    * of the same manifold always are.
    */
  def uspCluster(pts: Array[Array[Double]], knn: Array[Array[Int]], k: Int,
                 epochs: Int, seed: Long = 5): Array[Int] = {
    // Config bank (η, fine bins, depth), selected by the UNSUPERVISED
    // post-merge cut: the fraction of k'-NN edges crossing the final k
    // groups. Recovering disconnected manifolds drives this to ~0; a
    // straddled merge cannot. No labels are consulted. (The paper likewise
    // tunes η per dataset — Table 3.)
    val bank = Seq((4.0, 4 * k * 4, false), (8.0, 4 * k * 4, false), (8.0, 2 * k * 8, true))
    def cutFrac(labels: Array[Int]): Double = {
      var cut = 0L; var tot = 0L
      for (i <- pts.indices; j <- knn(i)) { if (labels(i) != labels(j)) cut += 1; tot += 1 }
      cut.toDouble / tot
    }
    bank.map { case (eta, mFine, deep) =>
      val cfg = UspConfig(m = mFine, kPrime = 10, eta = eta, epochs = epochs,
        batchSize = math.min(512, pts.length), lr = 1e-2, hidden = 64, seed = seed)
      val net = if (deep) Net.mlp2(pts(0).length, 64, mFine, cfg.seed) else null
      val model = UspTrainer.train(pts, knn, cfg, netIn = net)
      uspClusterFromFine(pts, knn, k, model.assignments, mFine)
    }.minBy(cutFrac)
  }

  /** The agglomerative merge step of [[uspCluster]], separated so the fine
    * partition can come from any source.
    */
  def uspClusterFromFine(pts: Array[Array[Double]], knn: Array[Array[Int]], k: Int,
                         fine: Array[Int], mFine: Int): Array[Int] = {
    // inter-bin k'-NN edge counts and bin sizes
    val group = Array.tabulate(mFine)(identity) // bin -> current group
    val W = Array.fill(mFine, mFine)(0.0)
    val size = new Array[Int](mFine)
    for (i <- pts.indices) {
      size(fine(i)) += 1
      for (j <- knn(i)) if (fine(i) != fine(j)) W(fine(i))(fine(j)) += 1
    }
    var nGroups = mFine
    // drop empty bins from the group count
    val active = scala.collection.mutable.Set.empty[Int]
    for (b <- 0 until mFine if size(b) > 0) active += b
    nGroups = active.size
    while (nGroups > k) {
      // merge the active pair with the highest edge density W/(|a|·|b|);
      // if all remaining pairs are disconnected, merge the two smallest
      var bestA = -1; var bestB = -1; var bestScore = -1.0
      for (a <- active; b <- active if a < b) {
        val w = W(a)(b) + W(b)(a)
        val score = if (w > 0) w / (size(a).toDouble * size(b)) else -1.0
        if (score > bestScore) { bestScore = score; bestA = a; bestB = b }
      }
      if (bestScore <= 0) {
        val sortedBySize = active.toSeq.sortBy(size(_))
        bestA = sortedBySize(0); bestB = sortedBySize(1)
      }
      // fold B into A
      for (c <- active if c != bestA && c != bestB) {
        W(bestA)(c) += W(bestB)(c); W(c)(bestA) += W(c)(bestB)
      }
      size(bestA) += size(bestB)
      for (b <- 0 until mFine if group(b) == bestB || group(b) == group(bestB))
        group(b) = bestA
      group(bestB) = bestA
      active -= bestB
      nGroups -= 1
    }
    val relabel = active.toSeq.sorted.zipWithIndex.toMap
    pts.indices.map(i => relabel(groupOf(group, fine(i)))).toArray
  }

  private def groupOf(group: Array[Int], b: Int): Int = {
    var g = b
    while (group(g) != g) g = group(g)
    g
  }

  // ─────────────────── extra: ScaNN pipelines (Figure 7's claim) ───────────────────

  final case class ScannRow(method: String, accuracy: Double, avgCand: Double,
                            usPerQuery: Double)

  /** USP+ScaNN vs K-means+ScaNN vs vanilla ScaNN: 10-NN accuracy, mean
    * candidate-set size (ADC scan cost), and wall-clock per query at a fixed
    * probe depth and rerank budget.
    */
  def scannPipelines(spark: SparkSession, n: Int = 20000, nQueries: Int = 300,
                     mProbe: Int = 2, rerank: Int = 100, epochs: Int = 50,
                     seed: Long = 7): Seq[ScannRow] = {
    val m = 16
    val data = SynthData.siftLite(n, seed = seed)
    val queries = SynthData.siftLite(nQueries, seed = seed + 100)
    val knn = KnnMatrix.selfKnn(spark, data, 10)
    val gt = KnnMatrix.queryKnn(spark, data, queries, 10)

    val pq = ProductQuantizer.fit(data, numSub = 8, k = 16, hPar = 4.0, hOrth = 1.0)
    val scann = new ScannIndex(data, pq)

    val cfg = UspConfig(m = m, eta = 7.0, epochs = epochs,
      batchSize = math.max(256, (n * 0.04).toInt), lr = 3e-3, hidden = 128, seed = seed)
    val usp = UspTrainer.train(data, knn, cfg)
    val uspIdx = new PartitionIndex(new ModelPartitioner(usp.net, m), usp.assignments)

    val km = KMeansPartitioner.fitLocal(data, m, iters = 25, seed = seed)
    val kmIdx = PartitionIndex.build(km, data, spark)

    def eval(name: String, candOf: Array[Double] => Array[Int]): ScannRow = {
      var hits = 0L
      var candSum = 0L
      val t0 = System.nanoTime()
      for (qi <- queries.indices) {
        val cand = candOf(queries(qi))
        candSum += cand.length
        val got = scann.search(queries(qi), 10, rerank, cand).toSet
        hits += gt(qi).count(got.contains)
      }
      val us = (System.nanoTime() - t0) / 1e3 / queries.length
      ScannRow(name, hits.toDouble / (queries.length * 10), candSum.toDouble / queries.length, us)
    }
    Seq(
      eval("Vanilla ScaNN (full ADC scan)", _ => scann.allIds),
      eval(s"K-means + ScaNN (probe $mProbe)", q => kmIdx.candidates(q, mProbe)),
      eval(s"USP + ScaNN (probe $mProbe)", q => uspIdx.candidates(q, mProbe)),
    )
  }

  // ───────────────────────────── printing ─────────────────────────────

  def fmtSweep(r: SweepResult): String =
    s"${r.method}\n" + r.points.map(p =>
      f"  probe=${p.probe}%2d  |C|=${p.avgCand}%9.1f  10-NN acc=${p.accuracy}%.4f").mkString("\n")
}
