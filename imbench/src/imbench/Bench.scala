package imbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.connectivity.{DistCC, LocalCC}
import repro.core.{InfluenceEval, PaCIM}
import repro.graph.CSRGraph
import repro.sample.EdgeSampler
import repro.select.{CelfSelector, PTreeSelector, SelectionResult, Selector, WinTreeSelector}
import repro.sketch.{SketchBuilder, SketchSet, SparkSketchBuilder}

/** What one IM query returned and how long it took. */
final case class Answer(seeds: Array[Int], sigma: Double, evaluations: Long, structBytes: Long,
                        totalBytes: Long, queryNs: Long, imNs: Long)

/** Runs IM queries of one workload, each call into a module wrapped in a
  * span of `tr`.
  */
final class Queries(wl: Workload, tr: Tracer) {

  /** Win-Tree, with its `select` call spanned (PaCIM.run takes the selector). */
  private val selector: Selector = new Selector {
    private val inner = new WinTreeSelector()
    override def name: String = inner.name
    override def select(sk: SketchSet, k: Int): SelectionResult = tr.span("select")(inner.select(sk, k))
  }

  /** Edge keys → CSRGraph → R sketches → k seeds → σ̂. */
  def run(keys: Array[Long], id: Int): Answer = {
    tr.newQuery(id)
    tr.span("query") {
      val t0 = System.nanoTime()
      val g = tr.span("graph")(CSRGraph.fromPackedEdges(wl.n, keys))
      local(g, wl.alpha, t0)
    }
  }

  /** PaCIM.run plus InfluenceEval.estimate on an already-built graph. */
  def local(g: CSRGraph, alpha: Double, t0: Long, sketches: Int = wl.sketches): Answer = {
    val t1 = System.nanoTime()
    val res = tr.span("im")(PaCIM.run(g, wl.model, wl.k, sketches, alpha, selector))
    val t2 = System.nanoTime()
    val sigma = tr.span("influence")(InfluenceEval.estimate(g, res.seeds, wl.model, wl.sims))
    Answer(res.seeds, sigma, res.evaluations, res.structBytes, res.totalBytes,
           System.nanoTime() - t0, t2 - t1)
  }

  /** The same query on the Spark engine: distributed sketches and influence,
    * Win-Tree on the Spark driver.
    */
  def distributed(s: SparkSession, g: CSRGraph, sketches: Int): Answer = {
    val t1 = System.nanoTime()
    val sk = tr.span("spark.sketch")(SparkSketchBuilder.build(s, g, wl.model, sketches, wl.alpha))
    val sel = tr.span("spark.select")(PaCIM.selectOn(sk, wl.k, selector))
    val t2 = System.nanoTime()
    val sigma = tr.span("spark.influence")(InfluenceEval.sparkEstimate(s, g, sel.seeds, wl.model, wl.sims))
    Answer(sel.seeds, sigma, sel.evaluations, sel.structBytes, -1L, System.nanoTime() - t1, t2 - t1)
  }
}

/** One benchmark run: set-up, a closed loop of IM queries for a fixed
  * time, correctness checks on every answer, and (traced) per-layer probes.
  * Prints an environment line, then the result line.
  */
object Bench {

  /** Input generations in the set-up; their median enters setup_s. */
  private val SetupRounds = 3
  /** Untimed queries before the timed loop (JIT and Spark code generation). */
  private val WarmupQueries = 2
  /** Repeats of the CC and assembly probes. */
  private val ProbeRepeats = 3
  /** Sketches used by the Spark-layer probe of a local workload. */
  private val ProbeSketches = 4
  /** Vertices in the `SketchSet.marginal` sample. */
  private val MarginalSample = 256
  /** Approximate `EdgeSampler.sample` calls in the sampling probe. */
  private val SampleCalls = 1L << 24

  private def nowS: Double = System.nanoTime() / 1e9
  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
  private def medianNs(xs: Seq[Long]): Double = median(xs.map(_.toDouble)) / 1e9

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val wl = Workload.all.find(w => opts.get("workload").contains(w.name)).getOrElse {
      Console.err.println(s"unknown --workload; choose one of ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    def arg(k: String): String = opts.getOrElse(k, sys.error(s"--$k is required"))
    val seed = arg("seed").toLong
    val seconds = arg("seconds").toDouble
    val traced = arg("trace") == "1"
    val bootS = (System.currentTimeMillis() -
                 ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

    val run = new Run(wl, seed, seconds, traced, bootS)
    try println(run.go())
    finally run.close()
  }

  private def startSpark(): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("imbench")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
  }

  private final class Run(wl: Workload, seed: Long, seconds: Double, traced: Boolean, bootS: Double) {
    private var session: Option[SparkSession] = None
    private var counters: Option[SparkCounters] = None
    private val plain = new Queries(wl, new Tracer(false))
    private val tracer = new Tracer(true)
    private val spanned = new Queries(wl, tracer)
    private var attempted = 0
    private var failed = 0
    private val problems = scala.collection.mutable.LinkedHashSet.empty[String]
    private var ref: Answer = _

    def close(): Unit = session.foreach(_.stop())

    private def check(name: String, ok: Boolean): Boolean = {
      if (!ok) problems += name
      ok
    }

    /** Every answer: the reference seeds and σ̂, and k ≤ σ̂ ≤ n. */
    private def verify(a: Answer): Boolean = {
      val same = check("seeds differ from the reference", a.seeds.sameElements(ref.seeds))
      val sig = check("sigma differs from the reference", a.sigma == ref.sigma)
      val range = check("sigma outside [k, n]", a.sigma >= wl.k && a.sigma <= wl.n)
      same && sig && range
    }

    /** The i-th query of a stream; queries rotate through the inputs. */
    private def timed(q: Queries, inputs: IndexedSeq[Array[Long]], i: Int): Answer = {
      val a = q.run(inputs(i % inputs.length), attempted)
      attempted += 1
      if (!verify(a)) failed += 1
      a
    }

    def go(): String = {
      // Set-up: the inputs from the seed (three times; the median counts),
      // the heap probe, the Spark session of a traced run, then warm-up queries.
      var inputs: IndexedSeq[Array[Long]] = null
      val inputS = median((0 until SetupRounds).map { _ =>
        val t = nowS
        inputs = wl.inputs(seed)
        nowS - t
      })
      val keys = inputs.head
      // Before Spark starts, whose own heap churn would swamp small graphs.
      val liveHeap = liveHeapBytes(keys)
      val t0 = nowS
      if (traced) {
        val s = startSpark()
        val c = new SparkCounters
        s.sparkContext.addSparkListener(c)
        session = Some(s)
        counters = Some(c)
      }
      val sessionS = nowS - t0
      // Before the warm-up, so that timed queries start from the JIT state it leaves.
      val independent = reference(keys)
      val t = nowS
      val warm = (0 until WarmupQueries).map(i => plain.run(keys, -1 - i))
      val warmS = nowS - t
      ref = independent.getOrElse(warm.head)
      if (!warm.forall(verify)) problems += "a warm-up query failed its checks"
      val setupS = bootS + inputS + sessionS + warmS

      val plainAnswers = scala.collection.mutable.ArrayBuffer.empty[Answer]
      val tracedAnswers = scala.collection.mutable.ArrayBuffer.empty[Answer]
      val alloc = scala.collection.mutable.ArrayBuffer.empty[Double]
      val gc = scala.collection.mutable.ArrayBuffer.empty[Double]

      val end = nowS + seconds
      while (nowS < end || plainAnswers.isEmpty) {
        plainAnswers += timed(plain, inputs, plainAnswers.length)
        if (traced) {
          val (a0, g0) = (allocatedBytes(), gcSeconds())
          tracedAnswers += timed(spanned, inputs, tracedAnswers.length)
          alloc += (allocatedBytes() - a0).toDouble
          gc += gcSeconds() - g0
        }
      }

      val env = environment(Seq(bootS, inputS, sessionS, warmS), plainAnswers.map(_.queryNs / 1e9).toSeq)
      val metrics =
        if (!traced) {
          Seq(
            ("query_s", median(plainAnswers.map(_.queryNs / 1e9).toSeq), "s"),
            ("im_s", median(plainAnswers.map(_.imNs / 1e9).toSeq), "s"),
            ("setup_s", setupS, "s"),
            ("influence", median(plainAnswers.map(_.sigma).toSeq), "vertices"),
            ("mem_model_bytes", plainAnswers.head.totalBytes.toDouble, "bytes"),
            ("live_heap_bytes", liveHeap, "bytes"),
            ("ok_frac", (attempted - failed).toDouble / attempted, "fraction"),
          )
        } else {
          tracer.newQuery(-1)
          val probe = new Probes(keys, tracedAnswers.last)
          attempted += 1
          if (!probe.ok) failed += 1
          val tr = tracer
          val q = tracedAnswers.toSeq
          val selectS = medianNs(tr.durations("select"))
          val evals = median(q.map(_.evaluations.toDouble))
          Seq(
            ("graph.build_s", medianNs(tr.durations("graph")), "s"),
            ("graph.ns_per_edge", medianNs(tr.durations("graph")) * 1e9 / keys.length, "ns"),
            ("graph.csr_bytes", probe.csrBytes.toDouble, "bytes"),
            ("sample.ns_per_call", probe.sampleNsPerCall, "ns"),
            ("connectivity.cc_s", probe.ccS, "s"),
            ("connectivity.cc_busy_s", probe.ccBusyS, "s"),
            ("connectivity.ns_per_arc", probe.ccNsPerArc, "ns"),
            ("sketch.assemble_s", probe.assembleS, "s"),
            ("sketch.build_s", medianNs(tr.selfTimes("im")), "s"),
            ("sketch.bytes", probe.sketchBytes.toDouble, "bytes"),
            ("sketch.marginal_ns", probe.marginalNs, "ns"),
            ("sketch.visits_per_getcenter", probe.visitsPerGetCenter, "count"),
            ("sketch.marginal_ns_noinline", probe.marginalNsNoInline, "ns"),
            ("sketch.getcenter_alloc_bytes_noinline", probe.getCenterAllocNoInline, "bytes"),
            ("sketch.markseed_s", probe.markSeedS, "s"),
            ("select.s", selectS, "s"),
            ("select.evaluations", evals, "count"),
            ("select.ns_per_eval", selectS * 1e9 / evals, "ns"),
            ("select.evals_per_round", evals / wl.k, "count"),
            ("select.struct_bytes", q.head.structBytes.toDouble, "bytes"),
            ("select.ptree_evaluations", probe.ptreeEvals.toDouble, "count"),
            ("select.celf_evaluations", probe.celfEvals.toDouble, "count"),
            ("select.useful_frac", probe.celfEvals / evals, "fraction"),
            ("influence.estimate_s", medianNs(tr.durations("influence")), "s"),
            ("influence.sims_per_s", wl.sims / medianNs(tr.durations("influence")), "1/s"),
            ("spark.sketch_build_s", medianNs(tr.durations("spark.sketch")), "s"),
            ("spark.select_s", medianNs(tr.durations("spark.select")), "s"),
            ("spark.influence_s", medianNs(tr.durations("spark.influence")), "s"),
            ("spark.jobs", probe.sparkCounts(0).toDouble, "count"),
            ("spark.tasks", probe.sparkCounts(1).toDouble, "count"),
            ("spark.task_busy_s", probe.sparkCounts(2) / 1e3, "s"),
            ("spark.shuffle_write_bytes", probe.sparkCounts(3).toDouble, "bytes"),
            ("spark.result_bytes", probe.sparkCounts(4).toDouble, "bytes"),
            ("spark.distcc_rows", probe.distccRows.toDouble, "count"),
            ("jvm.alloc_bytes", median(alloc.toSeq), "bytes"),
            ("jvm.gc_s", gc.sum / gc.length, "s"),
            ("query.self_s", medianNs(tr.selfTimes("query")), "s"),
            ("trace.overhead_frac",
             median(q.map(_.queryNs.toDouble)) / median(plainAnswers.map(_.queryNs.toDouble).toSeq) - 1, "fraction"),
          )
        }
      writeTrace()
      problems.foreach(p => Console.err.println(s"[imbench] check failed: $p"))
      println(env)
      val body = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
      s"""{"correct": ${problems.isEmpty}, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}"""
    }

    /** The answer every query must return, when it is not simply the first
      * warm-up query's: the α=1 run for a `lossless` workload (compression
      * must not change seeds).
      */
    private def reference(keys: Array[Long]): Option[Answer] =
      if (wl.lossless) {
        val g = CSRGraph.fromPackedEdges(wl.n, keys)
        Some(new Queries(wl, new Tracer(false)).local(g, 1.0, System.nanoTime()))
      } else None

    /** Heap held by the graph plus its SketchSet, after full collections. */
    private def liveHeapBytes(keys: Array[Long]): Double = {
      val mem = ManagementFactory.getMemoryMXBean
      def used(): Long = { System.gc(); System.gc(); mem.getHeapMemoryUsage.getUsed }
      median((0 until 3).map { _ =>
        val base = used()
        val g = CSRGraph.fromPackedEdges(wl.n, keys)
        val sk = SketchBuilder.build(g, wl.model, wl.sketches, wl.alpha)
        val held = used()
        require(sk.g eq g)
        (held - base).toDouble
      })
    }

    private def writeTrace(): Unit = if (traced) {
      val dir = Paths.get(sys.props.getOrElse("imbench.out", ".bench_build/imbench/traces"))
      Files.createDirectories(dir)
      Files.writeString(dir.resolve(s"${wl.name}-$seed.json"), tracer.toJson)
    }

    /** nproc, heap, GC, JVM, sources, Spark settings and the set-up parts. */
    private def environment(setup: Seq[Double], queries: Seq[Double]): String = {
      val rt = ManagementFactory.getRuntimeMXBean
      val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+")
      val sparkConf = session.map { s =>
        s""", "spark_master": "${s.sparkContext.master}", "shuffle_partitions": ${s.conf.get("spark.sql.shuffle.partitions")}"""
      }.getOrElse("")
      s"""{"env": {"workload": "${wl.name}", "seed": $seed, "traced": $traced, """ +
        s""""nproc": ${Runtime.getRuntime.availableProcessors()}, """ +
        s""""fork_join_parallelism": ${java.util.concurrent.ForkJoinPool.getCommonPoolParallelism}, """ +
        s""""heap_max_bytes": ${Runtime.getRuntime.maxMemory()}, "gc": "$gcs", """ +
        s""""jvm": "${rt.getVmName} ${rt.getVmVersion}", "source": "${sys.props.getOrElse("imbench.source", "unknown")}", """ +
        s""""n": ${wl.n}, "R": ${wl.sketches}, "k": ${wl.k}, "alpha": ${wl.alpha}, "sims": ${wl.sims}, """ +
        s""""setup_s": {${Seq("jvm_boot", "inputs", "spark_session", "warmup_queries").zip(setup)
          .map { case (k, v) => s""""$k": ${num(v)}""" }.mkString(", ")}}, """ +
        s""""query_s_each": [${queries.map(num).mkString(", ")}], "problems": ${problems.size}$sparkConf}}"""
    }

    /** Per-layer measurements made once, after the timed queries. */
    private final class Probes(keys: Array[Long], last: Answer) {
      private val g = CSRGraph.fromPackedEdges(wl.n, keys)
      private val sampler = EdgeSampler.forSketches(wl.model)
      val csrBytes: Long = g.csrBytes

      val sampleNsPerCall: Double = {
        val rs = math.max(1L, math.min(wl.sketches.toLong, SampleCalls / math.max(1, g.arcs))).toInt
        var hits = 0L
        val t = System.nanoTime()
        var r = 0
        while (r < rs) {
          var u = 0
          while (u < g.n) {
            g.foreachNeighbor(u)(w => if (sampler.sample(u, w, r)) hits += 1)
            u += 1
          }
          r += 1
        }
        val ns = (System.nanoTime() - t).toDouble
        require(hits >= 0)
        ns / (rs.toLong * g.arcs)
      }

      // CC and assembly, each timed ProbeRepeats times; medians count.
      private val ccRuns = (0 until ProbeRepeats).map { _ =>
        val busy = new java.util.concurrent.atomic.LongAdder
        val out = new Array[Array[Int]](wl.sketches)
        val t = System.nanoTime()
        repro.util.Par.parFor(wl.sketches) { r =>
          val s = System.nanoTime()
          out(r) = LocalCC.byUnionFind(g, sampler, r)
          busy.add(System.nanoTime() - s)
        }
        (out, (System.nanoTime() - t).toDouble, busy.sum().toDouble)
      }
      private val labels = ccRuns.head._1
      val ccS: Double = median(ccRuns.map(_._2)) / 1e9
      val ccBusyS: Double = median(ccRuns.map(_._3)) / 1e9
      val ccNsPerArc: Double = ccBusyS * 1e9 / (wl.sketches.toLong * g.arcs)

      private val centers = SketchBuilder.chooseCenters(g.n, wl.alpha)
      private val assembled = (0 until ProbeRepeats).map { _ =>
        val t = System.nanoTime()
        val s = SketchBuilder.fromCCLabels(g, sampler, wl.sketches, centers)(labels(_))
        (s, (System.nanoTime() - t).toDouble)
      }
      private val sk = assembled.head._1
      val assembleS: Double = median(assembled.map(_._2)) / 1e9
      val sketchBytes: Long = sk.sketchBytes

      val (marginalNs, visitsPerGetCenter) = {
        val rng = new SplitMix(seed ^ 0x6d617267L)
        val vs = Array.fill(MarginalSample)(rng.nextInt(g.n))
        val v0 = sk.visitCounter.sum()
        val t = System.nanoTime()
        var acc = 0.0
        vs.foreach(v => acc += sk.marginal(v))
        val ns = (System.nanoTime() - t).toDouble
        require(acc >= 0)
        (ns / vs.length, (sk.visitCounter.sum() - v0).toDouble / (vs.length.toLong * wl.sketches))
      }

      val markSeedS: Double = {
        val c = sk.copy()
        val t = System.nanoTime()
        last.seeds.foreach(c.markSeed)
        (System.nanoTime() - t) / 1e9
      }

      // CELF and P-tree at α=1: their counts do not depend on α, and the
      // uncompressed evaluation keeps the probe short.
      private val full = SketchBuilder.build(g, wl.model, wl.sketches, 1.0)
      private val ptree = PaCIM.selectOn(full, wl.k, new PTreeSelector)
      private val celf = PaCIM.selectOn(full, wl.k, new CelfSelector())
      val ptreeEvals: Long = ptree.evaluations
      val celfEvals: Long = celf.evaluations

      // The Spark layer: a Spark-engine query on the same graph with few
      // sketches, once to warm up, then spanned and counted, and the same
      // query on the local engine, which must return the same seeds and σ̂.
      private val spark = session.get
      private val sc = spark.sparkContext
      new Queries(wl, new Tracer(false)).distributed(spark, g, ProbeSketches)
      private val before = counters.get.snapshot(sc)
      private val onSpark = new Queries(wl, tracer).distributed(spark, g, ProbeSketches)
      /** Jobs, tasks, task run ms, shuffle write and result bytes of the spanned query. */
      val sparkCounts: Array[Long] = counters.get.snapshot(sc).zip(before).map { case (a, b) => a - b }
      private val onLocal = new Queries(wl, new Tracer(false)).local(g, wl.alpha, System.nanoTime(), ProbeSketches)
      val distccRows: Long = DistCC.run(spark, SparkSketchBuilder.sampledEdges(spark, g, wl.model, ProbeSketches)).count()

      val (marginalNsNoInline, getCenterAllocNoInline) = GetCenterProbe.inChildJvm(wl.name, seed)

      val ok: Boolean = Seq(
        check("Win-Tree, P-tree and CELF seeds differ",
              ptree.seeds.sameElements(celf.seeds) && celf.seeds.sameElements(last.seeds)),
        check("Thm 4.2: CELF <= P-tree <= 2 CELF evaluations fails",
              celfEvals <= ptreeEvals && ptreeEvals <= 2 * celfEvals),
        check("the Spark and local engines differ",
              onSpark.seeds.sameElements(onLocal.seeds) && onSpark.sigma == onLocal.sigma),
      ).forall(identity)

      Console.err.println(f"[imbench] visits per GetCenter $visitsPerGetCenter%.3f, 1/alpha ${1 / wl.alpha}%.1f; " +
                          s"CELF $celfEvals <= P-tree $ptreeEvals <= ${2 * celfEvals}")
    }
  }

  /** A JSON number with every digit of `v`. */
  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, "a metric was not measured")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  private def allocatedBytes(): Long = {
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    mx.getThreadAllocatedBytes(mx.getAllThreadIds).filter(_ > 0).sum
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum / 1e3
}
