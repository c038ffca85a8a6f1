package repro.jobs

import repro.workload.Experiments

/** spark-submit entrypoints for the workload-level experiments (Tables 1–2,
  * headline ratios, Figure 8/9/11 analogues). These run on the single-process
  * simulator — Spark is only needed by [[TpchPruningJob]] — but are shaped as
  * jobs so every reported table has a runnable binary.
  *
  * Usage: `spark-submit --class repro.jobs.<Name> target/scala-2.13/repro_*.jar [nTables nQueries seed]`
  */
object Table1QueryMix {
  def main(args: Array[String]): Unit = {
    val run = WorkloadArgs.run(args)
    println(Experiments.table1Report(run))
  }
}

object Table2LimitPruning {
  def main(args: Array[String]): Unit = {
    val run = WorkloadArgs.run(args)
    println(Experiments.table2Report(run))
  }
}

object HeadlineRatios {
  def main(args: Array[String]): Unit = {
    val run = WorkloadArgs.run(args)
    println(Experiments.headlineReport(run))
    println()
    println(Experiments.flowReport(run))
  }
}

object TopKSorting {
  def main(args: Array[String]): Unit = {
    val results = Experiments.runTopKSorting(
      nQueriesPerCell = args.lift(0).map(_.toInt).getOrElse(150),
      seed = args.lift(1).map(_.toLong).getOrElse(7L))
    println(Experiments.sortingReport(results))
  }
}

object TopKImpact {
  def main(args: Array[String]): Unit = {
    val impacts = Experiments.runTopKImpact(
      nQueries = args.lift(0).map(_.toInt).getOrElse(400),
      seed = args.lift(1).map(_.toLong).getOrElse(13L))
    println(Experiments.topkImpactReport(impacts))
  }
}

object JoinPruningImpact {
  def main(args: Array[String]): Unit = {
    val run = WorkloadArgs.run(args)
    val join = repro.workload.WorkloadStats.joinRatios(run.reports)
    println("Figure 10 — probe-side scan-set reduction by join pruning")
    println(f"  mean:   0.79 (paper) → ${join.mean}%.3f")
    println(f"  median: >= 0.72 (paper) → ${join.median}%.3f")
    println(f"  100%% bucket: ~13%% (paper) → ${join.fracEqual(1.0) * 100}%.1f %%")
    for (q <- Seq(0.1, 0.25, 0.5, 0.75, 0.9))
      println(f"  p${(q * 100).toInt}%-3d ${join.percentile(q)}%.3f")
  }
}

/** The calibrated workload run of `[nTables nQueries seed]`, by default
  * 60 tables, 20 000 queries and seed 42.
  */
private object WorkloadArgs {
  def run(args: Array[String]): Experiments.WorkloadRun =
    Experiments.runWorkload(
      nTables = args.lift(0).map(_.toInt).getOrElse(60),
      nQueries = args.lift(1).map(_.toInt).getOrElse(20000),
      seed = args.lift(2).map(_.toLong).getOrElse(42L))
}
