package repro.core

import scala.collection.mutable
import repro.meta.{PartitionMeta, TableStats}

/** §3.2 — the adaptive pruning tree.
  *
  * Filter predicates form the leaves; ∧ / ∨ are inner nodes. Children of a
  * node may be evaluated in any order, so the pruner tracks per-leaf pruning
  * ratio and evaluation time and periodically:
  *
  *  - **reorders** children — under ∧, fast and highly-selective filters
  *    first; under ∨, fast filters with *low* selectivity first (they
  *    short-circuit the disjunction to "may match" cheaply);
  *  - **cuts off** leaves that prune too little for their cost. Cutoff is
  *    only legal below an ∧ node: removing a branch of an ∨ would force the
  *    whole disjunction (and recursively its ancestors) to "may match",
  *    destroying all pruning (paper, Figure 3 discussion).
  *
  * A cut-off leaf stays in the query's execution filters — only its use for
  * *pruning* stops — which the caller models by the leaf returning
  * "may match" for every subsequent partition.
  */
object PruningTree {

  sealed trait Node
  final class Leaf(val name: String, val pred: PExpr, val artificialCostNanos: Long = 0L) extends Node {
    private[core] var evals: Long  = 0L
    private[core] var pruned: Long = 0L
    private[core] var nanos: Long  = 0L
    private[core] var active: Boolean = true
    /** `pred` bound to the stats of the current [[AdaptivePruner]] run. */
    private[core] var bound: RangeEval.Bound = _

    def isActive: Boolean = active
    def evalCount: Long   = evals
    def pruneCount: Long  = pruned
    /** Fraction of evaluations on which this leaf alone pruned. */
    def pruneRate: Double = if (evals == 0) 0.0 else pruned.toDouble / evals
    def avgCostNanos: Double = if (evals == 0) 0.0 else nanos.toDouble / evals
  }
  final class Inner(val isAnd: Boolean, val children: mutable.ArrayBuffer[Node]) extends Node

  def leaf(name: String, pred: PExpr, costNanos: Long = 0L): Node = new Leaf(name, pred, costNanos)
  def and(children: Node*): Node = new Inner(true, mutable.ArrayBuffer(children: _*))
  def or(children: Node*): Node  = new Inner(false, mutable.ArrayBuffer(children: _*))

  /** Build a tree from a predicate, splitting on the boolean structure. */
  def fromPExpr(p: PExpr, prefix: String = "p"): Node = p match {
    case PExpr.And(l, r) => new Inner(true,  mutable.ArrayBuffer(fromPExpr(l, prefix + "L"), fromPExpr(r, prefix + "R")))
    case PExpr.Or(l, r)  => new Inner(false, mutable.ArrayBuffer(fromPExpr(l, prefix + "L"), fromPExpr(r, prefix + "R")))
    case other           => new Leaf(prefix, other)
  }

  final case class LeafStat(name: String, evals: Long, pruned: Long,
                            avgCostNanos: Double, active: Boolean)

  final case class Config(
      reorderEvery: Int = 64,
      cutoffCheckEvery: Int = 128,
      minSamples: Int = 32,
      /** Modelled cost of scanning one unpruned partition — the alternative
        * the cutoff rule compares against (compile-time pruning vs letting
        * the warehouse scan the partition, §3.2).
        */
      scanCostNanosPerPartition: Long = 2_000_000L)
}

/** Stateful adaptive evaluator over a stream of partitions. Not thread-safe:
  * compile-time pruning runs on the (single-threaded) compiler path.
  */
final class AdaptivePruner(
    rootNode: PruningTree.Node,
    config: PruningTree.Config = PruningTree.Config(),
    clock: () => Long = () => System.nanoTime()) {

  import PruningTree._

  // Normalize so that a bare leaf root sits below an ∧ (cutoff legality).
  private val root: Inner = rootNode match {
    case i: Inner => i
    case l: Leaf  => new Inner(true, mutable.ArrayBuffer(l))
  }

  private var seen = 0L

  private val leaves: Seq[Leaf] = {
    def walk(n: Node): Seq[Leaf] = n match {
      case l: Leaf  => Seq(l)
      case i: Inner => i.children.toSeq.flatMap(walk)
    }
    walk(root)
  }

  /** Evaluate one partition; true = may match (keep), false = prune. */
  def mayMatch(meta: PartitionMeta): Boolean = run(Seq(meta)).nonEmpty

  def run(parts: Seq[PartitionMeta]): Seq[PartitionMeta] = {
    val stats = TableStats.ofSeq(parts)
    keptIndices(stats).iterator.map(stats.metas).toVector
  }

  /** Indices of the partitions of `stats` that may match. Every leaf is bound
    * to `stats` once, then the partitions stream through the tree in order.
    */
  def keptIndices(stats: TableStats): Array[Int] = {
    leaves.foreach(l => l.bound = RangeEval.bind(l.pred, stats))
    val kept = new Array[Int](stats.rowCount.length)
    var n = 0
    kept.indices.foreach { i =>
      if (stats.rowCount(i) > 0) {
        if (evalNode(root, i)) { kept(n) = i; n += 1 }
        seen += 1
        if (seen % config.reorderEvery == 0) reorder(root)
        if (seen % config.cutoffCheckEvery == 0) cutoff(root, parentIsAnd = true)
      }
    }
    java.util.Arrays.copyOf(kept, n)
  }

  private def evalNode(n: Node, p: Int): Boolean = n match {
    case l: Leaf =>
      if (!l.active) true // cut off: conservatively assume every partition passes
      else {
        val t0 = clock()
        val keep = l.bound.mayMatch(p)
        l.nanos += (clock() - t0) + l.artificialCostNanos
        l.evals += 1
        if (!keep) l.pruned += 1
        keep
      }
    case i: Inner =>
      if (i.isAnd) i.children.forall(evalNode(_, p)) // short-circuits on first prune
      else i.children.exists(evalNode(_, p))         // short-circuits on first may-match
  }

  private def score(n: Node, forAnd: Boolean): Double = n match {
    case l: Leaf =>
      if (!l.active) if (forAnd) Double.MinValue else Double.MaxValue
      else {
        val cost = math.max(l.avgCostNanos + 1.0, 1.0)
        if (forAnd) l.pruneRate / cost else (1.0 - l.pruneRate) / cost
      }
    case i: Inner =>
      val cs = i.children.map(score(_, forAnd))
      if (cs.isEmpty) 0.0 else cs.max
  }

  private def reorder(n: Node): Unit = n match {
    case i: Inner =>
      val sorted = i.children.sortBy(c => -score(c, i.isAnd))
      i.children.clear(); i.children ++= sorted
      i.children.foreach(reorder)
    case _ => ()
  }

  /** Deactivate leaves below an ∧ whose expected pruning benefit (pruned
    * partitions × scan cost saved) no longer pays for their evaluation cost.
    */
  private def cutoff(n: Node, parentIsAnd: Boolean): Unit = n match {
    case l: Leaf if parentIsAnd && l.active && l.evals >= config.minSamples =>
      val benefit = l.pruneRate * config.scanCostNanosPerPartition
      if (l.avgCostNanos > benefit) l.active = false
    case i: Inner => i.children.foreach(cutoff(_, i.isAnd))
    case _ => ()
  }

  def leafStats: Seq[PruningTree.LeafStat] = {
    val out = mutable.ArrayBuffer.empty[LeafStat]
    def walk(n: Node): Unit = n match {
      case l: Leaf  => out += LeafStat(l.name, l.evals, l.pruned, l.avgCostNanos, l.active)
      case i: Inner => i.children.foreach(walk)
    }
    walk(root)
    out.toSeq
  }
}
