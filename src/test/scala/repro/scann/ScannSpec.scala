package repro.scann

import repro.{SparkSpec, SynthData}
import repro.core.KnnMatrix

class ScannSpec extends SparkSpec {

  private lazy val data = SynthData.siftLite(800, seed = 111, d = 32)
  private lazy val queries = SynthData.siftLite(40, seed = 112, d = 32)
  private lazy val gt = KnnMatrix.queryKnn(spark, data, queries, 10)

  test("PQ rejects dimensions not divisible by the subspace count") {
    intercept[IllegalArgumentException](ProductQuantizer.fit(data, numSub = 5, k = 4))
  }

  test("PQ rejects codebook sizes a byte code cannot hold") {
    for (k <- Seq(0, 257))
      intercept[IllegalArgumentException](ProductQuantizer.fit(data, numSub = 8, k = k))
    assert(ProductQuantizer.fit(data, numSub = 8, k = 256, iters = 1).k == 256)
  }

  test("encode produces one code per subspace within codebook range") {
    val pq = ProductQuantizer.fit(data, numSub = 8, k = 16, iters = 5)
    val code = pq.encode(data(0))
    assert(code.length == 8)
    assert(code.forall(c => (c & 0xff) < 16))
  }

  test("adcTable + approxDist equal the explicit decode-and-measure distance") {
    val pq = ProductQuantizer.fit(data, numSub = 4, k = 8, iters = 5)
    val q = queries(0)
    val code = pq.encode(data(5))
    val table = pq.adcTable(q)
    val adc = pq.approxDist(code, table)
    // reconstruct the quantised point and measure directly
    val recon = new Array[Double](32)
    val subDim = 32 / 4
    for (s <- 0 until 4; j <- 0 until subDim)
      recon(s * subDim + j) = pq.codebooks(s)(code(s) & 0xff)(j)
    assert(math.abs(adc - KnnMatrix.sqDist(recon, q)) < 1e-9)
  }

  test("approximate distances correlate strongly with true distances") {
    // plain PQ (equal weights) for this check: anisotropic weighting trades
    // absolute distance fidelity for ranking fidelity near the query; 32
    // codes per subspace so quantisation noise doesn't dominate on the
    // curved filament data
    val pq = ProductQuantizer.fit(data, numSub = 8, k = 32, hPar = 1.0, hOrth = 1.0, iters = 10)
    val q = queries(1)
    val table = pq.adcTable(q)
    val approx = data.take(300).map(v => pq.approxDist(pq.encode(v), table))
    val exact = data.take(300).map(v => KnnMatrix.sqDist(v, q))
    // Spearman-ish check via Pearson on values
    val n = 300
    val ma = approx.sum / n; val me = exact.sum / n
    val cov = approx.zip(exact).map { case (a, e) => (a - ma) * (e - me) }.sum
    val sa = math.sqrt(approx.map(a => (a - ma) * (a - ma)).sum)
    val se = math.sqrt(exact.map(e => (e - me) * (e - me)).sum)
    val corr = cov / (sa * se)
    assert(corr > 0.85, s"ADC-vs-exact correlation $corr")
  }

  test("anisotropicNearest reduces to plain nearest when weights are equal") {
    val cents = Array(Array(1.0, 0.0), Array(0.0, 1.0), Array(-1.0, 0.0))
    val x = Array(0.9, 0.1)
    val plain = cents.indices.minBy(c => KnnMatrix.sqDist(cents(c), x))
    assert(ProductQuantizer.anisotropicNearest(x, cents, 1.0, 1.0) == plain)
  }

  test("anisotropic weighting prefers codewords with less parallel error") {
    // x along e1; candidate A has error orthogonal to x, B parallel, same norm
    val x = Array(10.0, 0.0)
    val cents = Array(Array(10.0, 2.0), Array(8.0, 0.0)) // A: orth err 2; B: par err 2
    assert(ProductQuantizer.anisotropicNearest(x, cents, hPar = 4.0, hOrth = 1.0) == 0)
    // with equal weights it is a tie broken by index — both dist 4 → picks 0 too;
    // so also check the reverse preference: parallel-heavy pick when hOrth >> hPar
    assert(ProductQuantizer.anisotropicNearest(x, cents, hPar = 1.0, hOrth = 8.0) == 1)
  }

  test("search with full rerank budget equals exact brute force") {
    val pq = ProductQuantizer.fit(data, numSub = 8, k = 16, iters = 8)
    val idx = new ScannIndex(data, pq)
    val q = queries(2)
    val got = idx.search(q, k = 10, rerank = data.length).toSeq
    val want = data.indices.sortBy(i => KnnMatrix.sqDist(data(i), q)).take(10).toSeq
    assert(got == want)
  }

  test("larger rerank budgets never reduce 10-NN recall") {
    val pq = ProductQuantizer.fit(data, numSub = 8, k = 16, iters = 8)
    val idx = new ScannIndex(data, pq)
    def recall(rerank: Int): Double = {
      var hits = 0
      for (qi <- queries.indices) {
        val got = idx.search(queries(qi), 10, rerank).toSet
        hits += gt(qi).count(got.contains)
      }
      hits.toDouble / (queries.length * 10)
    }
    val r20 = recall(20)
    val r100 = recall(100)
    val r400 = recall(400)
    assert(r100 >= r20 - 0.02 && r400 >= r100 - 0.02, s"recalls $r20 $r100 $r400")
    assert(r400 > 0.9, s"recall@rerank400 = $r400")
  }

  test("search restricted to a candidate subset only returns that subset") {
    val pq = ProductQuantizer.fit(data, numSub = 4, k = 8, iters = 5)
    val idx = new ScannIndex(data, pq)
    val subset = Array.range(0, 50)
    val got = idx.search(queries(3), 10, rerank = 30, candidateIds = subset)
    assert(got.forall(_ < 50))
  }

  test("anisotropic PQ achieves recall at least close to plain PQ at a small rerank budget") {
    val plain = new ScannIndex(data, ProductQuantizer.fit(data, 8, 16, hPar = 1.0, hOrth = 1.0, iters = 10))
    val aniso = new ScannIndex(data, ProductQuantizer.fit(data, 8, 16, hPar = 4.0, hOrth = 1.0, iters = 10))
    def recall(idx: ScannIndex): Double = {
      var hits = 0
      for (qi <- queries.indices) {
        val got = idx.search(queries(qi), 10, rerank = 25).toSet
        hits += gt(qi).count(got.contains)
      }
      hits.toDouble / (queries.length * 10)
    }
    val rp = recall(plain); val ra = recall(aniso)
    assert(ra >= rp - 0.05, s"anisotropic $ra vs plain $rp")
  }
}
