package repro.core

import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.select.{Selector, SelectionResult, WinTreeSelector}
import repro.sketch.{SketchBuilder, SketchSet}

/** PaC-IM: Parallel and Compressed Influence Maximization (Alg. 1).
  *
  * Step 1 builds R compressed sketches in parallel
  * ([[repro.sketch.SketchBuilder]], Alg. 3); step 2 greedily selects k
  * seeds with a parallel-CELF structure (Win-Tree by default, as in the
  * paper, with its bulk refresh of every marginal in rounds that grow
  * expensive; P-tree, which stays lazy, available).
  *
  * `Ours₁` in the tables = `alpha = 1` (no compression);
  * `Ours₀.₁` = `alpha = 0.1` (10× sketch compression).
  */
object PaCIM {

  /** Full run record: seeds plus everything the tables report.
    * `evaluations` counts GetCenter marginals only, and `bfsVisits` their
    * visits; `refreshes` counts Win-Tree's bulk refresh passes.
    */
  final case class Result(
      seeds: Array[Int],
      evaluations: Long,
      sketchTimeMs: Long,
      selectTimeMs: Long,
      sketchBytes: Long,
      structBytes: Long,
      csrBytes: Long,
      bfsVisits: Long,
      refreshes: Int = 0,
  ) {
    def totalTimeMs: Long = sketchTimeMs + selectTimeMs
    /** Total modeled footprint: input graph + sketches + selector. */
    def totalBytes: Long = csrBytes + sketchBytes + structBytes
  }

  def run(g: CSRGraph, model: ProbModel, k: Int, numSketches: Int = 256,
          alpha: Double = 1.0, selector: Selector = new WinTreeSelector()): Result =
    runOn(g, k, selector)(SketchBuilder.build(g, model, numSketches, alpha))

  /** Builds the sketches with `build`, then selects k seeds on them with
    * `selector`, timing each step: [[run]] with another sketch build (the
    * InfuserMG baseline passes its coloring one).
    */
  def runOn(g: CSRGraph, k: Int, selector: Selector)(build: => SketchSet): Result = {
    require(k >= 0, s"k=$k must be non-negative")
    val t0 = System.nanoTime()
    val sk = build
    val t1 = System.nanoTime()
    val sel = selector.select(sk, k)
    val t2 = System.nanoTime()
    Result(
      seeds = sel.seeds,
      evaluations = sel.evaluations,
      sketchTimeMs = (t1 - t0) / 1000000,
      selectTimeMs = (t2 - t1) / 1000000,
      sketchBytes = sk.sketchBytes + 8L * g.n, // + the per-vertex scores
      structBytes = sel.structBytes,
      csrBytes = g.csrBytes,
      bfsVisits = sk.visitCounter.sum(),
      refreshes = sel.refreshes,
    )
  }

  /** Select seeds on an already-built sketch set (copies it first so the
    * caller can reuse the sketches across selectors — Tab. 5).
    */
  def selectOn(sk: SketchSet, k: Int, selector: Selector): SelectionResult =
    selector.select(sk.copy(), k)
}
