package repro.baseline

import repro.core.PaCIM
import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.select.CelfSelector
import repro.sketch.SketchBuilder

/** InfuserMG-style baseline [32], as the paper characterizes it:
  *
  *  - full per-vertex CC memoization of every sketch (our α = 1 sketches
  *    carry exactly that information — label+size per vertex per sketch,
  *    O(Rn) space, Tab. 2 row "InfuserMG");
  *  - sketch connectivity by the "standard coloring idea" (min-label
  *    propagation) rather than union–find (Sec. 5.2);
  *  - sequential CELF seed selection where only the MARGINAL evaluation
  *    itself is parallel (Sec. 4: "existing parallel implementations …
  *    leave the CELF process sequential").
  *
  * We do NOT replicate InfuserMG's quality-losing shortcuts (Sec. 5:
  * its influence is 38–92% of best on sparse graphs); this faithful
  * variant selects exactly PaC-IM's seeds, which tests assert.
  */
object InfuserMG {

  def run(g: CSRGraph, model: ProbModel, k: Int, numSketches: Int = 256): PaCIM.Result =
    PaCIM.run(g, model, k, numSketches, alpha = 1.0,
      selector = new CelfSelector,
      ccAlgo = SketchBuilder.CCAlgo.Coloring)
}

/** StaticGreedy baseline [22] (with Infuser's fusion optimization, as
  * Tab. 2 assumes): no memoization at all — every evaluation re-simulates
  * the sampled graphs — plus sequential CELF. Exactly PaC-IM with α = 0.
  */
object StaticGreedy {

  def run(g: CSRGraph, model: ProbModel, k: Int, numSketches: Int = 256): PaCIM.Result =
    PaCIM.run(g, model, k, numSketches, alpha = 0.0,
      selector = new CelfSelector,
      ccAlgo = SketchBuilder.CCAlgo.UnionFind)
}
