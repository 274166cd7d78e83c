package repro.core

/** Analytic learnable-parameter counts for Table 2 ("Approximate number of
  * learnable parameters of selected space-partitioning methods when
  * dividing SIFT into 256 bins").
  *
  * The paper's 256-bin configurations are hierarchical 16×16 trees of MLPs
  * (one root + 16 leaves, §5.4.1); Neural LSH uses hidden size 512, ours
  * 128 (Table 2). K-means "parameters" are its m centroids (m·d scalars).
  */
object ParamCount {

  /** One Linear→BN→ReLU→Linear MLP: (d·h + h) + 2h + (h·m + m). */
  def mlp(d: Int, hidden: Int, m: Int): Long =
    (d.toLong * hidden + hidden) + 2L * hidden + (hidden.toLong * m + m)

  /** A 2-level hierarchy of MLPs: root(d→h→m1) + m1 leaves (d→h→m2). */
  def hierarchicalMlp(d: Int, hidden: Int, m1: Int, m2: Int): Long =
    mlp(d, hidden, m1) + m1.toLong * mlp(d, hidden, m2)

  /** K-means: the m centroid vectors. */
  def kmeans(d: Int, m: Int): Long = d.toLong * m

  /** Table 2 rows for SIFT (d=128) into 256 bins (16×16 hierarchies). */
  def table2(d: Int = 128, m1: Int = 16, m2: Int = 16): Seq[(String, Long)] = Seq(
    "Neural LSH (hidden 512)" -> hierarchicalMlp(d, 512, m1, m2),
    "Ours (hidden 128)"       -> hierarchicalMlp(d, 128, m1, m2),
    "K-Means"                 -> kmeans(d, m1 * m2),
  )
}
