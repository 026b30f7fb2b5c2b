package repro.select

import java.util.concurrent.RecursiveAction
import java.util.concurrent.atomic.AtomicReference

import repro.sketch.SketchSet

/** Win-Tree–based parallel seed selection (Alg. 5), with a bulk refresh
  * for rounds whose lazy evaluations grow expensive.
  *
  * The stale scores sit in a [[TournamentTree]], whose internal nodes hold
  * the id of the child with the better stale score. `FindMax` recursively
  * explores the tree's ids in parallel, re-evaluating a node's vertex when
  * it is stale (its id differs from its parent's) and pruning whole
  * subtrees whose stale best is already below the global write-max Δ* of
  * true scores, and resets each node it leaves with the tree's
  * `betterChild`. After the
  * recursion the root holds the vertex with the best true score
  * (Thm. 4.4); a deterministic (score, id) total order makes the selected
  * seed identical to CELF's even though the *set* of vertices evaluated
  * depends on thread timing (which is why, as in the paper, Win-Tree has
  * no 2× evaluation bound — Tab. 5 measures what it actually does).
  *
  * Bulk refresh (NewGreedy inside lazy greedy; Chen, Wang & Yang, KDD'09).
  * A round counts the arcs its GetCenter searches draw
  * (`SketchSet.drawCounter`). Once they reach [[WinTreeSelector.RefreshBudget]]
  * × R·m, a share of the R·m draws of one `SketchSet.refresh` pass, FindMax
  * stops evaluating, `refresh` writes every vertex's exact marginal into the
  * sketch set's scores, and the tree is rebuilt bottom-up over them in
  * O(n); its root then holds the round's best vertex. The stopped traversal
  * leaves the tree inconsistent, so the root is read only after that
  * rebuild.
  * This is a deterministic ski-rental rule: a round either finishes
  * lazily or pays about the budget in GetCenter draws before refreshing.
  * The seeds stay CELF's, since every score the tree then holds is a true
  * score, and every later stale score an upper bound. A search from a
  * center draws nothing, so at α = 1 (Tab. 5, InfuserMG's memoization)
  * and on graphs without edges no round ever refreshes, and Win-Tree runs
  * the paper's lazy Alg. 5 unchanged. Elsewhere the number of refreshes,
  * like the number of evaluations, depends on thread timing: the racing
  * traversal decides which vertices a round evaluates, and so whether it
  * reaches the budget. Eight selections on the same R-MAT sketches
  * (`GraphGen.rmat(32768, 340000, seed = 101)`, WIC, α = 0.1, R = 64,
  * k = 50, 4 cores) refreshed once in three runs (554–747 evaluations)
  * and never in five (900–918), all with the same seeds.
  *
  * `evaluations` counts GetCenter marginals only; `refreshes` counts the
  * bulk passes. A refresh holds the sketch build's transient per-thread
  * state while it runs, which `structBytes` does not include.
  */
final class WinTreeSelector extends Selector {
  override def name: String = "Win-Tree"

  override def select(sk: SketchSet, k: Int): SelectionResult = {
    val tree = new TournamentTree(sk.scores)
    // At least one draw, so a round that draws nothing never refreshes.
    val budget = math.max(1L, (WinTreeSelector.RefreshBudget * sk.R * sk.g.m).toLong)
    Selector.rounds(sk, k, tree) { _ =>
      val rd = new Round(sk, tree, sk.drawCounter.sum() + budget)
      rd.findMax()
      if (rd.stopped) {
        sk.refresh()
        tree.rebuild()
      }
    }
  }

  /** One round's FindMax: the write-max Δ* of true scores, and the stop
    * flag that is set once `sk.drawCounter` reaches `drawLimit`.
    */
  private final class Round(sk: SketchSet, tree: TournamentTree, drawLimit: Long) {
    private val ids = tree.ids
    private val stale = sk.scores
    private val best = new AtomicReference[(Long, Int)]((0L, Int.MaxValue))
    @volatile var stopped = false

    def findMax(): Unit = new FindMax(0, -2, 0).invoke()

    /** Alg. 5 FindMax as a ForkJoin task. `parentId` of -2 marks the root
      * (always treated as stale); `depth` switches to sequential recursion
      * below [[WinTreeSelector.SeqCutoffDepth]] levels from the root to
      * bound task overhead. Once the round is stopped it evaluates nothing
      * more and returns.
      */
    private final class FindMax(t: Int, parentId: Int, depth: Int) extends RecursiveAction {
      override def compute(): Unit = run(t, parentId, depth)

      private def run(t: Int, parentId: Int, depth: Int): Unit = {
        if (stopped) return
        val id = ids(t)
        if (id < 0) return
        val isStale = id != parentId
        if (isStale) {
          val b = best.get()
          // Prune: every vertex below has a stale score no better than ours.
          if (!Key.better(stale(id), id, b._1, b._2)) return
          stale(id) = sk.marginal(id)
          writeMax(stale(id), id)
          if (sk.drawCounter.sum() >= drawLimit) stopped = true
        }
        val left = 2 * t + 1
        if (left >= ids.length) return // leaf
        if (depth < WinTreeSelector.SeqCutoffDepth) {
          val lTask = new FindMax(left, id, depth + 1)
          val rTask = new FindMax(left + 1, id, depth + 1)
          lTask.fork()
          rTask.compute()
          lTask.join()
        } else {
          run(left, id, depth + 1)
          run(left + 1, id, depth + 1)
        }
        ids(t) = tree.betterChild(t)
      }
    }

    /** Atomic WriteMax on the (score, id) total order. */
    private def writeMax(s: Long, id: Int): Unit = {
      var done = false
      while (!done) {
        val cur = best.get()
        if (Key.better(s, id, cur._1, cur._2)) done = best.compareAndSet(cur, (s, id))
        else done = true
      }
    }
  }
}

object WinTreeSelector {

  /** FindMax forks tasks on the top levels of the tree and recurses
    * sequentially below this depth.
    */
  private val SeqCutoffDepth = 8

  /** c: a round refreshes once its GetCenter draws reach c·R·m, where R·m
    * is the draws of one refresh pass. Calibrated on the benchmark's
    * `sf-compressed` workload (R-MAT, n = 32768, 297k edges, p = 0.02,
    * α = 0.1, R = 256, 4 cores), where round 1 would draw 4.3e8 arcs, 5.7
    * R·m. When a refresh took ≈0.11 s (as long as ≈0.7 R·m GetCenter
    * draws), median selection times were 0.85 s lazy and 0.12 / 0.13 /
    * 0.15 / 0.20 / 0.28 s at c = 1/16, 1/8, 1/4, 1/2, 1, each with one
    * refresh, and c was 1/4. The vectorized draws of the union–find pass
    * made a refresh cheaper against GetCenter's one-at-a-time draws;
    * measured again as imbench `im_s` over alternating pairs against
    * c = 1/4, c = 1/8 won 10 of 10 (medians 0.2057 → 0.1778 s) and c = 1/2
    * lost 3 of 3 (0.1986 → 0.2547 s). A smaller c raises the cost of a
    * needless refresh in a round that would have ended just past the
    * budget; at 1/8 no round of `road` (≈0.54M draws in a whole
    * selection, R·m = 7.3M) reaches it.
    */
  private[select] val RefreshBudget = 0.125
}
