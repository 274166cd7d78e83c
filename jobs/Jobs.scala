package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Tables

/** spark-submit entrypoints, one per evaluation table (DESIGN.md §5).
  * Each prints the same rows as the corresponding `bench` suite — the
  * harness code in [[repro.eval.Tables]] is shared.
  *
  * Example:
  *   spark-submit --class repro.jobs.Table4CandidateSize target/scala-2.13/repro_2.13-*.jar
  */
object JobSpark {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Table 2: learnable parameter counts (no Spark needed, analytic). */
object Table2Params {
  def main(args: Array[String]): Unit = {
    println("== Table 2: learnable parameters, SIFT d=128, 256 bins ==")
    Tables.table2().foreach(r => println(f"${r.method}%-26s ${r.params}%10d (paper ${r.paperParams})"))
  }
}

/** Table 3: offline training times and eta values. */
object Table3TrainingTime {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table3")
    try {
      println("== Table 3: offline training time (ensemble of 3) ==")
      Tables.table3(spark).foreach { r =>
        println(f"${r.dataset}%-12s bins=${r.bins}%3d ours=${r.minutes}%6.2f min (paper ${r.paperMinutes}%.0f min) " +
          f"eta=${r.eta}%.0f (paper ${r.paperEta}%.0f)")
      }
    } finally spark.stop()
  }
}

/** Table 4: candidate-set decrease at 85% 10-NN accuracy, plus the full
  * Figure-5a sweeps.
  */
object Table4CandidateSize {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table4")
    try {
      val sweeps = Tables.sift16Sweeps(spark)
      sweeps.foreach(s => println(Tables.fmtSweep(s)))
      println("== Table 4 ==")
      Tables.table4(sweeps).foreach { r =>
        println(f"${r.method}%-12s |C|@85%%=${r.candAt85}%8.0f ours=${r.oursCandAt85}%8.0f " +
          f"decrease=${r.decreasePct}%5.1f%% (paper ${r.paperDecreasePct}%.0f%%)")
      }
    } finally spark.stop()
  }
}

/** Table 5: clustering comparison on 2-D toy datasets. */
object Table5Clustering {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table5")
    try {
      println("== Table 5: clustering quality ==")
      Tables.table5(spark).foreach { r =>
        println(f"${r.dataset}%-9s ${r.method}%-9s ARI=${r.ari}%6.3f acc=${r.accuracy}%6.3f (paper: ${r.paperVerdict})")
      }
    } finally spark.stop()
  }
}

/** Extra (Figure 7's claim): ScaNN pipeline comparison. */
object ScannPipeline {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("scann")
    try {
      println("== ScaNN pipelines ==")
      Tables.scannPipelines(spark).foreach { r =>
        println(f"${r.method}%-32s acc=${r.accuracy}%.4f |C|=${r.avgCand}%8.0f us/q=${r.usPerQuery}%8.1f")
      }
    } finally spark.stop()
  }
}
