package repro.sim

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{FilterPruner, MatchClass}
import repro.workload.{TableGen, WorkloadGen, WorkloadStats}

/** Pins every filter-pruning decision of the calibrated workload (the
  * 20 000-query run behind EXPERIMENTS.md): any change to metadata
  * evaluation that moves one partition between NotMatching, PartiallyMatching
  * and FullyMatching, or one partition of the §7 flow, fails here.
  */
class CalibratedWorkloadSpec extends AnyFunSuite {

  private lazy val tables = TableGen.catalog(60, 42)
  private lazy val catalog = tables.map(t => t.name -> t).toMap
  private lazy val queries = WorkloadGen.generate(tables, 20000, 43)

  test("calibrated workload: filter classification totals over probe and build predicates") {
    val counts = scala.collection.mutable.Map.empty[MatchClass, Long].withDefaultValue(0L)
    def tally(table: String, pred: Option[repro.core.PExpr]): Unit =
      pred.foreach { p =>
        FilterPruner.classify(catalog(table).metas, p).partitions.foreach(cp => counts(cp.cls) += 1)
      }
    queries.foreach { q =>
      tally(q.spec.table, q.spec.pred)
      q.spec.join.foreach(j => tally(j.buildTable, j.buildPred))
    }
    assert(counts(MatchClass.NotMatching) == 2218212L)
    assert(counts(MatchClass.PartiallyMatching) == 69652L)
    assert(counts(MatchClass.FullyMatching) == 35432L)
  }

  test("calibrated workload: overall partition pruning ratio") {
    val reports = queries.map(q => SimExecutor.execute(catalog, q.spec, SimExecutor.SimConfig(metadataOnly = true)))
    val ratio = WorkloadStats.overallPartitionRatio(reports)
    assert(ratio == 0.9449829833434655)
  }

  test("calibrated workload: per-query report digest") {
    // Folds every query's (eligible, scanned, rows scanned, result count), in
    // query order, so that one query moving any of them changes the value.
    val digest = queries.foldLeft(17L) { (h, q) =>
      val r = SimExecutor.execute(catalog, q.spec, SimExecutor.SimConfig(metadataOnly = true))
      Seq(r.partitionsEligible.toLong, r.partitionsScanned.toLong, r.rowsScanned, r.resultCount)
        .foldLeft(h)((acc, x) => acc * 1000003L + x)
    }
    assert(digest == -4611749434557625048L)
  }
}
