package repro.baselines

import java.util.Random
import repro.Rng.shuffle

/** Balanced k-NN-graph partitioning — the substrate Neural LSH needs.
  *
  * The paper's Neural LSH uses KaHIP [40] (a closed-source-built C++
  * multilevel partitioner) to produce balanced, low-cut partitions of the
  * k-NN graph that then serve as supervised labels. We build an equivalent:
  * balanced multi-source BFS region growth followed by Kernighan–Lin-style
  * move refinement under the same (1+ε) balance constraint, one weighted
  * implementation of each that the flat partition runs at unit weights and
  * the multilevel partition runs on every coarsened graph. At our dataset
  * scales this reaches comparable edge cuts; the downstream Neural LSH
  * behaviour (classify points into the given bins) only depends on the
  * labels being balanced and locality-preserving.
  */
object GraphPartitioner {

  /** Symmetrized adjacency lists from a k-NN matrix. */
  def symmetrize(knn: Array[Array[Int]]): Array[Array[Int]] = {
    val n = knn.length
    val sets = Array.fill(n)(new scala.collection.mutable.TreeSet[Int])
    var i = 0
    while (i < n) {
      knn(i).foreach { j => sets(i) += j; sets(j) += i }
      i += 1
    }
    sets.map(_.toArray)
  }

  /** Partition the graph into `m` bins with max size ⌈(1+eps)·n/m⌉: region
    * growth from farthest-point seeds and refinement, at unit weights.
    */
  def partition(adj: Array[Array[Int]], m: Int, eps: Double = 0.05,
                seed: Long = 1, refinePasses: Int = 8): Array[Int] = {
    val n = adj.length
    val cap = math.ceil((1 + eps) * n / m).toInt
    val rng = new Random(seed)
    val order = Array.tabulate(n)(identity)
    shuffle(order, rng)
    // Farthest-point seeding in graph distance (k-means++ analogue): each
    // new seed maximises its BFS distance to all previous seeds, spreading
    // the regions over the graph before growth starts.
    val seeds = new Array[Int](m)
    seeds(0) = order(0)
    val minDist = Array.fill(n)(Int.MaxValue)
    def bfsUpdate(src: Int): Unit = {
      val q = scala.collection.mutable.Queue((src, 0))
      minDist(src) = 0
      while (q.nonEmpty) {
        val (v, dv) = q.dequeue()
        adj(v).foreach { u =>
          if (dv + 1 < minDist(u)) { minDist(u) = dv + 1; q.enqueue((u, dv + 1)) }
        }
      }
    }
    bfsUpdate(seeds(0))
    for (b <- 1 until m) {
      var best = -1; var bd = -1
      var v = 0
      while (v < n) {
        val dv = if (minDist(v) == Int.MaxValue) Int.MaxValue - 1 else minDist(v)
        if (dv > bd) { bd = dv; best = v }
        v += 1
      }
      seeds(b) = best
      bfsUpdate(best)
    }
    val wts = adj.map(a => Array.fill(a.length)(1.0))
    val nodeW = Array.fill(n)(1)
    val bin = growWeighted(adj, nodeW, m, cap, order, seeds)
    refineWeighted(adj, wts, nodeW, bin, m, cap, rng, refinePasses)
    bin
  }

  /** Multilevel partitioning (Metis/KaHIP-lite): coarsen by heavy-edge
    * matching until the graph is small, partition the coarsest graph by
    * weighted region growth, then uncoarsen with weighted KL refinement at
    * every level. This is the algorithmic core that makes KaHIP's cuts good;
    * the flat partition above plateaus on large locally-dense kNN graphs.
    */
  def partitionMultilevel(adj: Array[Array[Int]], m: Int, eps: Double = 0.05,
                          seed: Long = 1, refinePasses: Int = 10): Array[Int] = {
    val rng = new Random(seed)
    // level representation: parallel adjacency (neighbor ids, edge weights),
    // node weights, and the fine→coarse map used for uncoarsening
    final case class Level(nbrs: Array[Array[Int]], wts: Array[Array[Double]],
                           nodeW: Array[Int], toCoarse: Array[Int])
    var nbrs = adj.map(_.clone())
    var wts = adj.map(a => Array.fill(a.length)(1.0))
    var nodeW = Array.fill(adj.length)(1)
    val levels = scala.collection.mutable.ArrayBuffer.empty[Level]
    val totalW = adj.length

    while (nbrs.length > math.max(256, 8 * m)) {
      val n = nbrs.length
      val matched = Array.fill(n)(-1)
      val order = Array.tabulate(n)(identity)
      shuffle(order, rng)
      order.foreach { v =>
        if (matched(v) == -1) {
          var best = -1
          var bw = -1.0
          var i = 0
          while (i < nbrs(v).length) {
            val u = nbrs(v)(i)
            if (matched(u) == -1 && u != v && wts(v)(i) > bw) { bw = wts(v)(i); best = u }
            i += 1
          }
          if (best >= 0) { matched(v) = best; matched(best) = v }
          else matched(v) = v
        }
      }
      // coarse ids
      val toCoarse = Array.fill(n)(-1)
      var cn = 0
      for (v <- 0 until n if toCoarse(v) == -1) {
        toCoarse(v) = cn
        if (matched(v) != v) toCoarse(matched(v)) = cn
        cn += 1
      }
      if (cn >= n) {
        // no progress — stop coarsening
        levels.prepend(Level(nbrs, wts, nodeW, toCoarse))
        nbrs = Array.empty
      } else {
        val cNodeW = new Array[Int](cn)
        for (v <- 0 until n) cNodeW(toCoarse(v)) += nodeW(v)
        val agg = Array.fill(cn)(scala.collection.mutable.HashMap.empty[Int, Double])
        for (v <- 0 until n; i <- nbrs(v).indices) {
          val a = toCoarse(v); val b = toCoarse(nbrs(v)(i))
          if (a != b) agg(a)(b) = agg(a).getOrElse(b, 0.0) + wts(v)(i)
        }
        levels.prepend(Level(nbrs, wts, nodeW, toCoarse))
        nbrs = agg.map(_.keys.toArray)
        wts = agg.zip(nbrs).map { case (mp, ks) => ks.map(mp) }
        nodeW = cNodeW
      }
    }
    if (nbrs.isEmpty) {
      // coarsening stalled at the last prepended level; partition it flat
      val lvl = levels.remove(0)
      nbrs = lvl.nbrs; wts = lvl.wts; nodeW = lvl.nodeW
    }

    val cap = math.ceil((1 + eps) * totalW.toDouble / m).toInt
    // initial partition of the coarsest graph: weighted region growth from
    // the first m nodes of a random order
    val order = Array.tabulate(nbrs.length)(identity)
    shuffle(order, rng)
    var bin = growWeighted(nbrs, nodeW, m, cap, order, order.take(m))
    refineWeighted(nbrs, wts, nodeW, bin, m, cap, rng, refinePasses * 2)

    // uncoarsen, refining at each level
    levels.foreach { lvl =>
      val fineBin = Array.tabulate(lvl.toCoarse.length)(v => bin(lvl.toCoarse(v)))
      refineWeighted(lvl.nbrs, lvl.wts, lvl.nodeW, fineBin, m, cap, rng, refinePasses)
      bin = fineBin
    }
    bin
  }

  /** Multi-source BFS region growth: each bin grows a contiguous region from
    * its seed (`seeds(b)`, or the next unassigned node of `order` if that
    * seed is taken); the smallest growable bin extends next, which keeps
    * regions balanced AND spatially coherent (random-order greedy fragments
    * space, which both hurts the cut and makes the labels unlearnable for the
    * downstream classifier). A bin whose frontier runs dry restarts from the
    * next unassigned node of `order`.
    */
  private def growWeighted(nbrs: Array[Array[Int]], nodeW: Array[Int], m: Int, cap: Int,
                           order: Array[Int], seeds: Array[Int]): Array[Int] = {
    val n = nbrs.length
    val bin = Array.fill(n)(-1)
    val size = new Array[Int](m)
    val frontiers = Array.fill(m)(scala.collection.mutable.Queue.empty[Int])
    var seedPtr = 0
    def nextUnassigned(): Int = {
      while (seedPtr < n && bin(order(seedPtr)) >= 0) seedPtr += 1
      if (seedPtr < n) order(seedPtr) else -1
    }
    for (b <- seeds.indices) {
      val s = if (bin(seeds(b)) == -1) seeds(b) else nextUnassigned()
      if (s >= 0) { bin(s) = b; size(b) += nodeW(s); frontiers(b) ++= nbrs(s) }
    }
    var assignedNodes = bin.count(_ >= 0)
    while (assignedNodes < n) {
      var b = -1
      for (c <- 0 until m)
        if (size(c) < cap && (b == -1 || size(c) < size(b))) b = c
      if (b == -1) b = (0 until m).minBy(size(_))
      var v = -1
      val q = frontiers(b)
      while (v == -1 && q.nonEmpty) {
        val cand = q.dequeue()
        if (bin(cand) == -1) v = cand
      }
      if (v == -1) v = nextUnassigned()
      if (v == -1) assignedNodes = n
      else {
        bin(v) = b; size(b) += nodeW(v); assignedNodes += 1
        frontiers(b) ++= nbrs(v).filter(bin(_) == -1)
      }
    }
    bin
  }

  private def refineWeighted(nbrs: Array[Array[Int]], wts: Array[Array[Double]],
                             nodeW: Array[Int], bin: Array[Int], m: Int, cap: Int,
                             rng: Random, passes: Int): Unit = {
    val n = nbrs.length
    val size = new Array[Int](m)
    for (v <- 0 until n) size(bin(v)) += nodeW(v)
    val order = Array.tabulate(n)(identity)
    val gainTo = new Array[Double](m)
    var pass = 0
    var moved = true
    while (moved && pass < passes) {
      moved = false
      shuffle(order, rng)
      order.foreach { v =>
        java.util.Arrays.fill(gainTo, 0.0)
        var i = 0
        while (i < nbrs(v).length) { gainTo(bin(nbrs(v)(i))) += wts(v)(i); i += 1 }
        val cur = bin(v)
        var best = cur
        var bestGain = 1e-12
        var b = 0
        while (b < m) {
          if (b != cur && size(b) + nodeW(v) <= cap) {
            val gain = gainTo(b) - gainTo(cur)
            if (gain > bestGain) { bestGain = gain; best = b }
          }
          b += 1
        }
        if (best != cur) {
          size(cur) -= nodeW(v); size(best) += nodeW(v); bin(v) = best
          moved = true
        }
      }
      pass += 1
    }
  }

  /** Number of graph edges crossing bins (each undirected edge once). */
  def edgeCut(adj: Array[Array[Int]], bin: Array[Int]): Long = {
    var cut = 0L
    var i = 0
    while (i < adj.length) {
      adj(i).foreach(j => if (j > i && bin(i) != bin(j)) cut += 1)
      i += 1
    }
    cut
  }
}
