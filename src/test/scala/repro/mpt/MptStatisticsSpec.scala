package repro.mpt

import java.nio.file.Files

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.util.CaseInsensitiveStringMap

import repro.SparkSpec

/** What an mpt table tells Catalyst before it reads anything: one manifest
  * snapshot per `load()`, and a size estimate that lets a join broadcast.
  */
class MptStatisticsSpec extends SparkSpec {

  private def tmpDir(tag: String): String =
    Files.createTempDirectory(s"mpt-$tag").toFile.getAbsolutePath

  private def readMpt(dir: String) = spark.read.format("repro.mpt.MptTableProvider").load(dir)

  test("getTable uses the manifest inferSchema read, even if the table was rewritten in between") {
    val dir = tmpDir("snapshot")
    MptWriter.write(spark.range(100).toDF("id"), dir, 5, MptWriter.Layout.SortedBy("id"))
    val provider = new MptTableProvider
    val props = Map("path" -> dir)
    val schema = provider.inferSchema(new CaseInsensitiveStringMap(props.asJava))
    MptWriter.write(spark.range(100).toDF("id"), dir, 3, MptWriter.Layout.SortedBy("id"))
    val table = provider.getTable(schema, Array.empty, props.asJava).asInstanceOf[MptTable]
    assert(table.manifest.partitions.size == 5)
    // A later getTable, without inferSchema, reads the table afresh.
    val again = provider.getTable(schema, Array.empty, props.asJava).asInstanceOf[MptTable]
    assert(again.manifest.partitions.size == 3)
  }

  test("a join of two small mpt tables plans a broadcast hash join") {
    val (factDir, dimDir) = (tmpDir("fact"), tmpDir("dim"))
    val fact = spark.range(2000).selectExpr("id", "id % 50 AS k", "CAST(id * 3 AS DOUBLE) AS v")
    val dim = spark.range(50).selectExpr("id AS k", "CONCAT('name-', CAST(id AS STRING)) AS name")
    MptWriter.write(fact, factDir, 8, MptWriter.Layout.SortedBy("id"))
    MptWriter.write(dim, dimDir, 2, MptWriter.Layout.SortedBy("k"))
    withSqlConf("spark.sql.autoBroadcastJoinThreshold" -> "10MB", "spark.sql.adaptive.enabled" -> "false") {
      val joined = readMpt(factDir).join(readMpt(dimDir), "k").where("v < 3000")
      val plan = joined.queryExecution.executedPlan
      assert(plan.collect { case j: BroadcastHashJoinExec => j }.nonEmpty, plan)
      assert(plan.collect { case j: SortMergeJoinExec => j }.isEmpty, plan)
      val expected = fact.join(dim, "k").where("v < 3000")
      def rows(df: org.apache.spark.sql.DataFrame) = df.select("id", "k", "v", "name").collect().map(_.toSeq).toSeq
      assert(rows(joined).sortBy(_.head.asInstanceOf[Long]) == rows(expected).sortBy(_.head.asInstanceOf[Long]))
    }
    assert(spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1")
  }
}
