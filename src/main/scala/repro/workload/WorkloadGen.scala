package repro.workload

import repro.core.PExpr
import repro.core.PExpr._
import repro.sim.{JoinSpec, MemTable, OrderBy, QuerySpec}

/** Calibrated synthetic query population.
  *
  * The paper's evaluation is distributional statistics over Snowflake's
  * customer workload; we regenerate a population whose *marginals* are
  * calibrated to the paper's reported numbers:
  *
  *  - query-type mix from Table 1 (LIMIT 2.60 % split 0.37/2.23,
  *    top-k 5.55 % split 4.47/0.12/0.96);
  *  - LIMIT k distribution from Figure 6 (mass at 0 and 1, 97 % ≤ 10 000);
  *  - predicate selectivity mix skewed highly selective (§1, §8.3);
  *  - build-side selectivity for joins including ~13 % empty build sides
  *    (Figure 10's 100 % bucket).
  *
  * Everything else (which partitions prune, Table 2's outcome breakdown,
  * the per-technique ratio distributions) is *measured*, not assumed.
  */
object WorkloadGen {

  sealed trait Kind extends Product with Serializable
  object Kind {
    case object Plain        extends Kind
    case object Join         extends Kind
    case object LimitNoPred  extends Kind
    case object LimitPred    extends Kind
    case object TopKOrderBy  extends Kind // ORDER BY x LIMIT k
    case object TopKGroupKey extends Kind // GROUP BY x ORDER BY x LIMIT k
    case object TopKGroupAgg extends Kind // GROUP BY y ORDER BY agg(x) LIMIT k
  }

  final case class WorkloadQuery(spec: QuerySpec, sql: String, kind: Kind)

  /** Figure 6: k mass points (k=0 and k=1 dominate; 97 % ≤ 10 000). */
  def sampleK(rnd: scala.util.Random, allowZero: Boolean): Long = {
    val p = rnd.nextDouble()
    val k =
      if (p < 0.30) 0L
      else if (p < 0.60) 1L
      else if (p < 0.72) 10L
      else if (p < 0.82) 100L
      else if (p < 0.90) 1000L
      else if (p < 0.97) 10000L
      else if (p < 0.990) 100000L
      else if (p < 0.999) 1000000L
      else 5000000L
    if (k == 0 && !allowZero) 1L else k
  }

  /** Predicate selectivity correlates with table size: nobody full-scans a
    * petabyte table, so the biggest tables are accessed via point lookups
    * and narrow ranges almost exclusively — this correlation is the
    * substance of the paper's "real workloads are far more selective than
    * TPC-H" finding (§8.3).
    */
  def samplePredicateForTable(rnd: scala.util.Random, t: MemTable): PExpr =
    if (t.numPartitions > 40) {
      val roll = rnd.nextDouble()
      if (roll < 0.55) Cmp(CmpOp.Eq, Col("v"), lit(rnd.nextInt(1000000).toLong))
      else if (roll < 0.95) {
        val width = (1000 + rnd.nextInt(9000)).toLong
        val lo = rnd.nextInt(1000000).toLong
        And(Cmp(CmpOp.Gte, Col("v"), lit(lo)), Cmp(CmpOp.Lt, Col("v"), lit(lo + width)))
      } else samplePredicate(rnd)
    } else samplePredicate(rnd)

  /** Highly selective predicate mix on the value column `v` (domain ~1e6),
    * with a share of predicates on non-layout columns that rarely prune.
    */
  def samplePredicate(rnd: scala.util.Random): PExpr = {
    val roll = rnd.nextDouble()
    if (roll < 0.35) {
      // Point lookup on v.
      Cmp(CmpOp.Eq, Col("v"), lit(rnd.nextInt(1000000).toLong))
    } else if (roll < 0.65) {
      // Narrow range (0.1 – 1 %).
      val width = (1000 + rnd.nextInt(9000)).toLong
      val lo = rnd.nextInt(1000000).toLong
      And(Cmp(CmpOp.Gte, Col("v"), lit(lo)), Cmp(CmpOp.Lt, Col("v"), lit(lo + width)))
    } else if (roll < 0.77) {
      // Medium range (1 – 20 %).
      val width = (10000 + rnd.nextInt(190000)).toLong
      val lo = rnd.nextInt(1000000).toLong
      And(Cmp(CmpOp.Gte, Col("v"), lit(lo)), Cmp(CmpOp.Lt, Col("v"), lit(lo + width)))
    } else if (roll < 0.85) {
      // Categorical equality — prunes only if the layout happens to help.
      Cmp(CmpOp.Eq, Col("s"), lit(TableGen.vocab(rnd.nextInt(TableGen.vocab.size))))
    } else if (roll < 0.90) {
      // Date range (~1 year of a 7-year domain) on a non-layout column.
      val lo = 9131 + rnd.nextInt(2192)
      And(Cmp(CmpOp.Gte, Col("dt"), dateLit(lo)), Cmp(CmpOp.Lt, Col("dt"), dateLit(lo + 365)))
    } else {
      // Wide, barely selective range.
      val lo = rnd.nextInt(300000).toLong
      Cmp(CmpOp.Gte, Col("v"), lit(lo))
    }
  }

  /** Build-side predicate for joins: mostly narrow ranges over the join key
    * domain; ~13 % empty build sides (Figure 10); a small share unfiltered.
    * When the probe side is filtered too, the two predicates are drawn
    * around a common center — real queries filter both sides of a join
    * consistently (same date range, same tenant, …), which is also what
    * gives the probe side any joinable rows at all.
    */
  def sampleBuildPred(rnd: scala.util.Random, center: Option[Long]): Option[PExpr] = {
    val roll = rnd.nextDouble()
    if (roll < 0.13) Some(Cmp(CmpOp.Lt, Col("v"), lit(-1L))) // empty build side
    else if (roll < 0.20) None                                // unfiltered build
    else {
      // Width as a fraction of the key domain, wide enough that a small
      // build side usually keeps a few rows (intentional-empty is separate).
      val frac =
        if (roll < 0.50) 0.02
        else if (roll < 0.75) 0.05
        else if (roll < 0.90) 0.15
        else 0.4
      val width = math.max(1L, (1000000 * frac).toLong)
      val lo = center match {
        case Some(c) => math.max(0L, c - width / 2 + (rnd.nextGaussian() * width * 0.3).toLong)
        case None    => rnd.nextInt((1000000 - width).toInt.max(1)).toLong
      }
      Some(And(Cmp(CmpOp.Gte, Col("v"), lit(lo)), Cmp(CmpOp.Lt, Col("v"), lit(lo + width))))
    }
  }

  sealed trait TableBias
  object TableBias {
    /** Dashboards / exploration: small tables disproportionately. */
    case object Small extends TableBias
    /** Analytical queries with filters: data volume draws them to big tables. */
    case object Large extends TableBias
    case object Uniform extends TableBias
  }

  /** Draws tables by bias. The weights and their total are computed once
    * per workload, in table order.
    */
  private final class TablePicker(tables: Vector[MemTable]) {
    private def weighted(w: MemTable => Double): (Array[Double], Double) = {
      val weights = tables.map(w)
      (weights.toArray, weights.sum)
    }
    private val small = weighted(t => 1.0 / math.pow(t.numPartitions.toDouble, 0.7))
    private val large = weighted(_.numPartitions.toDouble)

    def apply(rnd: scala.util.Random, bias: TableBias): MemTable = bias match {
      case TableBias.Uniform => tables(rnd.nextInt(tables.size))
      case _ =>
        val (weights, total) = if (bias == TableBias.Small) small else large
        var x = rnd.nextDouble() * total
        var i = 0
        while (i < tables.size - 1 && x > weights(i)) { x -= weights(i); i += 1 }
        tables(i)
    }
  }

  /** Generate the workload. Mix calibrated to Table 1 (see class comment). */
  def generate(tables: Vector[MemTable], nQueries: Int, seed: Long): Vector[WorkloadQuery] = {
    val rnd = new scala.util.Random(seed)
    val pickTable = new TablePicker(tables)
    (0 until nQueries).map { i =>
      val id = i.toLong
      val roll = rnd.nextDouble()
      val q: WorkloadQuery =
        if (roll < 0.0447) { // ORDER BY x LIMIT k
          val t = pickTable(rnd, TableBias.Large)
          val pred = if (rnd.nextDouble() < 0.4) Some(samplePredicateForTable(rnd, t)) else None
          val spec = QuerySpec(id, t.name, pred,
            orderBy = Some(OrderBy("v", desc = rnd.nextDouble() < 0.8)),
            limit = Some(sampleK(rnd, allowZero = false)))
          WorkloadQuery(spec, SqlRender.render(spec), Kind.TopKOrderBy)
        } else if (roll < 0.0459) { // GROUP BY x ORDER BY x LIMIT k
          val t = pickTable(rnd, TableBias.Large)
          val spec = QuerySpec(id, t.name, None, groupBy = Some("g"),
            orderBy = Some(OrderBy("g", desc = true)),
            limit = Some(sampleK(rnd, allowZero = false)))
          WorkloadQuery(spec, SqlRender.render(spec), Kind.TopKGroupKey)
        } else if (roll < 0.0555) { // GROUP BY y ORDER BY agg(x) LIMIT k
          val t = pickTable(rnd, TableBias.Uniform)
          val spec = QuerySpec(id, t.name, None, groupBy = Some("g"),
            orderBy = Some(OrderBy("cnt", desc = true, aggregated = true)),
            limit = Some(sampleK(rnd, allowZero = false)))
          WorkloadQuery(spec, SqlRender.render(spec), Kind.TopKGroupAgg)
        } else if (roll < 0.0592) { // LIMIT without predicate
          val t = pickTable(rnd, TableBias.Small)
          val spec = QuerySpec(id, t.name, None, limit = Some(sampleK(rnd, allowZero = true)),
            limitShapeSupported = rnd.nextDouble() > 0.02)
          WorkloadQuery(spec, SqlRender.render(spec), Kind.LimitNoPred)
        } else if (roll < 0.0815) { // LIMIT with predicate
          // Filtered LIMIT queries target real (larger) data sets; a large
          // share of the full query shapes block the pushdown (§4.3).
          val t = pickTable(rnd, TableBias.Uniform)
          val spec = QuerySpec(id, t.name, Some(samplePredicate(rnd)),
            limit = Some(sampleK(rnd, allowZero = true)),
            limitShapeSupported = rnd.nextDouble() > 0.60)
          WorkloadQuery(spec, SqlRender.render(spec), Kind.LimitPred)
        } else if (roll < 0.28) { // join
          val probe = pickTable(rnd, TableBias.Large)
          val build = pickTable(rnd, TableBias.Small)
          // Analytical joins usually filter the fact (probe) side too, with
          // predicates correlated to the build-side filter.
          val center = rnd.nextInt(1000000).toLong
          val probePred =
            if (rnd.nextDouble() < 0.5) {
              val width = (5000 + rnd.nextInt(95000)).toLong
              Some(And(Cmp(CmpOp.Gte, Col("v"), lit(math.max(0L, center - width / 2))),
                       Cmp(CmpOp.Lt, Col("v"), lit(center + width / 2))))
            } else None
          val spec = QuerySpec(id, probe.name, probePred,
            join = Some(JoinSpec(build.name, buildKey = "v", probeKey = "v",
                                 buildPred = sampleBuildPred(rnd, probePred.map(_ => center)))))
          WorkloadQuery(spec, SqlRender.render(spec), Kind.Join)
        } else { // plain select
          // Predicated scans go to large tables (that is why they filter);
          // full-table SELECTs are exploratory pokes at small tables.
          val withPred = rnd.nextDouble() < 0.75
          val t = pickTable(rnd, if (withPred) TableBias.Large else TableBias.Small)
          val pred = if (withPred) Some(samplePredicateForTable(rnd, t)) else None
          val spec = QuerySpec(id, t.name, pred)
          WorkloadQuery(spec, SqlRender.render(spec), Kind.Plain)
        }
      q
    }.toVector
  }
}
