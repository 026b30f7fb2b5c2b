package repro.baseline

import repro.connectivity.LocalCC
import repro.core.PaCIM
import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler
import repro.select.CelfSelector
import repro.sketch.SketchBuilder

/** InfuserMG-style baseline [32], as the paper characterizes it:
  *
  *  - full per-vertex CC memoization of every sketch (our α = 1 sketches
  *    carry exactly that information — label+size per vertex per sketch,
  *    O(Rn) space, Tab. 2 row "InfuserMG");
  *  - sketch connectivity by the "standard coloring idea" (min-label
  *    propagation) rather than union–find (Sec. 5.2), one sketch at a time
  *    through `SketchBuilder.fromCCLabels`;
  *  - sequential CELF seed selection where only the MARGINAL evaluation
  *    itself is parallel (Sec. 4: "existing parallel implementations …
  *    leave the CELF process sequential").
  *
  * We do NOT replicate InfuserMG's quality-losing shortcuts (Sec. 5:
  * its influence is 38–92% of best on sparse graphs); this faithful
  * variant selects exactly PaC-IM's seeds, which tests assert.
  */
object InfuserMG {

  def run(g: CSRGraph, model: ProbModel, k: Int, numSketches: Int = 256): PaCIM.Result = {
    val sampler = EdgeSampler.forSketches(model)
    PaCIM.runOn(g, k, new CelfSelector) {
      SketchBuilder.fromCCLabels(g, sampler, numSketches, SketchBuilder.chooseCenters(g.n, 1.0))(
        LocalCC.byColoring(g, sampler, _))
    }
  }
}
