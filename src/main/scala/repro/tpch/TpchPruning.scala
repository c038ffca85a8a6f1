package repro.tpch

import java.nio.file.Files

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.core.FilterPruner
import repro.meta.TableStats
import repro.mpt.MptWriter

/** §8.3 — pruning ratios of TPC-H on a clustered layout.
  *
  * The paper runs TPC-H SF100 clustered on `l_shipdate` and `o_orderdate`
  * and finds an average pruning ratio of 28.7 % with a per-query median of
  * 8.3 % — far below production workloads. We rebuild the experiment at
  * SF 0.1 with proportional partition counts: pruning ratios depend on the
  * fraction of partitions a predicate's value range covers, which is scale
  * invariant for uniformly scaled data.
  */
object TpchPruning {

  final case class QueryResult(name: String, total: Int, pruned: Int) {
    def ratio: Double = if (total == 0) 0.0 else pruned.toDouble / total
  }

  final case class Result(perQuery: Seq[QueryResult]) {
    def average: Double = {
      // Workload-level ratio: all pruned partitions over all partitions.
      val t = perQuery.map(_.total).sum; val p = perQuery.map(_.pruned).sum
      if (t == 0) 0.0 else p.toDouble / t
    }
    def medianPerQuery: Double = {
      val rs = perQuery.map(_.ratio).sorted
      if (rs.isEmpty) 0.0 else rs(rs.size / 2)
    }
  }

  /** Build the four clustered mpt tables and return their zone maps. */
  def buildTables(spark: SparkSession, sf: Double, baseDir: Option[String] = None)
      : Map[String, TableStats] = {
    val dir = baseDir.getOrElse(Files.createTempDirectory("tpch-mpt").toFile.getAbsolutePath)
    // Partition counts ∝ table size; lineitem at SF 0.1 → 120 partitions of
    // ~5 000 rows, mirroring SF100's micro-partition granularity.
    val specs = Seq(
      ("lineitem", SynthData.lineitem(spark, sf), 120.0, MptWriter.Layout.SortedBy("l_shipdate")),
      ("orders",   SynthData.orders(spark, sf),    30.0, MptWriter.Layout.SortedBy("o_orderdate")),
      ("customer", SynthData.customer(spark, sf),   4.0, MptWriter.Layout.Random(1)),
      ("part",     SynthData.part(spark, sf),       4.0, MptWriter.Layout.Random(2)))
    specs.map { case (name, df, partsAtSf01, layout) =>
      val n = math.max(1, (partsAtSf01 * (sf / 0.1)).round.toInt)
      name -> MptWriter.write(df, s"$dir/$name", n, layout).stats
    }.toMap
  }

  /** Run compile-time filter pruning for every query over the manifests. */
  def run(tables: Map[String, TableStats]): Result = Result(
    TpchQueries.queries.map { q =>
      var total = 0; var pruned = 0
      q.scans.foreach { s =>
        val stats = tables(s.table)
        total += stats.ids.length
        pruned += FilterPruner.classifyOpt(stats, s.pred).prunedCount
      }
      QueryResult(q.name, total, pruned)
    })

  def report(r: Result): String = {
    val rows = r.perQuery.map(q => f"| ${q.name}%-4s | ${q.total}%5d | ${q.pruned}%6d | ${q.ratio * 100}%6.1f %% |").mkString("\n")
    f"""Figure 13 / §8.3 — TPC-H(-lite) pruning ratios, clustered on l_shipdate / o_orderdate
       |(paper at SF100: average 28.7 %%, median per-query 8.3 %%)
       || qry  | parts | pruned | ratio    |
       ||------|-------|--------|----------|
       |$rows
       |average pruning ratio: ${r.average * 100}%.1f %% (paper: 28.7 %%)
       |median per-query ratio: ${r.medianPerQuery * 100}%.1f %% (paper: 8.3 %%)""".stripMargin
  }
}
