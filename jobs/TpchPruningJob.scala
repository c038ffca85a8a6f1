package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.tpch.TpchPruning

/** §8.3 / Figure 13: TPC-H-lite pruning ratios on a clustered layout.
  *
  * Usage: `spark-submit --class repro.jobs.TpchPruningJob target/scala-2.13/repro_*.jar [sf]`
  */
object TpchPruningJob {
  def main(args: Array[String]): Unit = {
    val sf = args.lift(0).map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("tpch-pruning")
      .getOrCreate()
    try {
      val tables = TpchPruning.buildTables(spark, sf)
      println(TpchPruning.report(TpchPruning.run(tables)))
    } finally spark.stop()
  }
}
