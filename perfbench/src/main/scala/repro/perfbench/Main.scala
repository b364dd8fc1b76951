package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.data.ErSynth
import scala.jdk.CollectionConverters._

/** One benchmark run in one JVM.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --out <result.json> [--spans <spans.json>]`
  *
  * The run sets up [[Setups]] times and reports the median set-up time.
  * It runs the workload's untimed warm-up round, if it has one, and then
  * whole pipeline rounds on the last set-up's inputs: as many
  * as the workload's nominal round length fits into `--seconds`, at least
  * one. The count depends only on the workload and `--seconds`, so every
  * run attempts the same operations. Every round's outputs are checked
  * outside its timing. The result JSON holds the end-to-end metrics
  * (untraced) or the per-layer metrics (traced), each the median over
  * rounds.
  */
object Main {

  val Setups = 3

  final case class Metric(name: String, unit: String, value: Double)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val wl      = Workloads.byName(opts("workload"))
    val seed    = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val traced  = opts("trace") == "1"
    val tr      = new Trace(traced)

    // Set-up, repeated: each but the last stops the session it started.
    var spark: SparkSession = null
    var inputs: Inputs = null
    val setupS = (1 to Setups).map { i =>
      if (spark != null) spark.stop()
      tr.round = -i
      val t0 = System.nanoTime()
      val (s, in) = Workloads.setup(wl.spec, seed, tr)
      spark = s; inputs = in
      (System.nanoTime() - t0) / 1e9
    }

    tr.round = 0
    wl.warmUp.foreach { sp =>
      tr.span("warmup")(wl.run(spark, Workloads.inputsOf(ErSynth.generate(spark, sp, seed)), seed, tr))
    }

    var correct = true
    var failed  = 0
    val resolve = scala.collection.mutable.ArrayBuffer.empty[Double]
    val f1      = scala.collection.mutable.ArrayBuffer.empty[Double]
    val gcS     = scala.collection.mutable.ArrayBuffer.empty[Double]
    val rounds = math.max(1, (seconds / wl.roundS).toInt)
    for (round <- 1 to rounds) {
      tr.round = round
      val gc0 = gcSeconds()
      try {
        val t0  = System.nanoTime()
        val out = tr.span("round")(wl.run(spark, inputs, seed, tr))
        resolve += (System.nanoTime() - t0) / 1e9
        gcS += gcSeconds() - gc0
        f1 += out.matchF1
        try wl.check(inputs, out)
        catch {
          case e: Checks.Failed =>
            correct = false
            Console.err.println(s"[perfbench] round $round: check failed: ${e.getMessage}")
        }
        if (traced) wl.diagnose(inputs, out, tr)
      } catch {
        case e: Exception =>
          failed += 1
          Console.err.println(s"[perfbench] round $round failed:")
          e.printStackTrace()
      }
    }
    spark.stop()

    if (resolve.isEmpty) sys.exit(1)
    val metrics =
      if (!traced) Seq(
        Metric("setup_s", "s", Stats.median(setupS)),
        Metric("resolve_s", "s", Stats.median(resolve.toSeq)),
        Metric("match_f1", "ratio", Stats.median(f1.toSeq)))
      else perLayer(tr, 1 to rounds, gcS.toSeq)

    val json =
      s"""{"correct": $correct, "attempted": $rounds, "failed": $failed, "metrics": {""" +
        metrics.map(m => s"""${Json.str(m.name)}: {"value": ${Json.num(m.value)}, "unit": ${Json.str(m.unit)}}""")
          .mkString(", ") + "}}"
    Files.write(Paths.get(opts("out")), json.getBytes(StandardCharsets.UTF_8))
    opts.get("spans").foreach(p => Files.write(Paths.get(p), tr.toJson.getBytes(StandardCharsets.UTF_8)))
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def heapPeakMb(): Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
      .map(_.getPeakUsage.getUsed).sum / 1048576.0

  /** Per-layer metrics from the traced run: span seconds and counts per
    * round, each the median over rounds; set-up layers over set-ups. Layers
    * a workload does not call read 0.
    */
  private def perLayer(tr: Trace, rounds: Seq[Int], gcS: Seq[Double]): Seq[Metric] = {
    val secs   = rounds.map(tr.secondsByName)
    val counts = rounds.map(tr.countsOf)
    val setupSecs = (1 to Setups).map(i => tr.secondsByName(-i))
    def med(xs: Seq[Double]) = Stats.median(xs)
    def s(span: String)  = med(secs.map(_.getOrElse(span, 0.0)))
    def c(count: String) = med(counts.map(_.getOrElse(count, 0.0)))
    def rate(count: String, span: String) =
      med(rounds.indices.map { i =>
        val t = secs(i).getOrElse(span, 0.0)
        if (t == 0.0) 0.0 else counts(i).getOrElse(count, 0.0) / t
      })
    Seq(
      Metric("spark.session_s", "s", med(setupSecs.map(_.getOrElse("spark.session", 0.0)))),
      Metric("data.generate_s", "s", med(setupSecs.map(_.getOrElse("data.generate", 0.0)))),
      Metric("data.collect_s", "s", med(setupSecs.map(_.getOrElse("data.collect", 0.0)))),
      Metric("data.tuples", "count", tr.countsOf(-1).getOrElse("data.tuples", 0.0)),
      Metric("ir.lsa_s", "s", s("ir.lsa")),
      Metric("ir.w2v_s", "s", s("ir.w2v")),
      Metric("ir.bert_s", "s", s("ir.bert")),
      Metric("ir.embdi_s", "s", s("ir.embdi")),
      Metric("ir.values", "count", c("ir.values")),
      Metric("vae.train_s", "s", s("vae.train")),
      Metric("vae.samples", "count", c("vae.samples")),
      Metric("vae.recon", "sse", c("vae.recon")),
      Metric("vae.kl", "nats", c("vae.kl")),
      Metric("vae.active_units", "count", c("vae.active_units")),
      Metric("represent.encode_s", "s", s("represent.encode")),
      Metric("represent.tuples_per_s", "1/s", rate("represent.tuples", "represent.encode")),
      Metric("search.ir_s", "s", s("search.ir")),
      Metric("search.vaer_s", "s", s("search.vaer")),
      Metric("search.queries", "count", c("search.queries")),
      Metric("search.recall_at_10", "ratio", c("search.recall_at_10")),
      Metric("search.ir_recall_at_10.lsa", "ratio", c("search.ir_recall_at_10.lsa")),
      Metric("search.ir_recall_at_10.w2v", "ratio", c("search.ir_recall_at_10.w2v")),
      Metric("search.ir_recall_at_10.bert", "ratio", c("search.ir_recall_at_10.bert")),
      Metric("search.ir_recall_at_10.embdi", "ratio", c("search.ir_recall_at_10.embdi")),
      Metric("bootstrap.run_s", "s", s("bootstrap.run")),
      Metric("bootstrap.pool_pairs", "count", c("bootstrap.pool_pairs")),
      Metric("bootstrap.pool_recall", "ratio", c("bootstrap.pool_recall")),
      Metric("bootstrap.knn_overlap", "ratio", c("bootstrap.knn_overlap")),
      Metric("bootstrap.pos_seeds", "count", c("bootstrap.pos_seeds")),
      Metric("bootstrap.neg_seeds", "count", c("bootstrap.neg_seeds")),
      Metric("bootstrap.removed_fp", "count", c("bootstrap.removed_fp")),
      Metric("bootstrap.seed_purity", "ratio", c("bootstrap.seed_purity")),
      Metric("siamese.train_s", "s", s("siamese.train")),
      Metric("siamese.train_pairs", "count", c("siamese.train_pairs")),
      Metric("siamese.predict_s", "s", s("siamese.predict")),
      Metric("siamese.pairs_per_s", "1/s", rate("siamese.predicted_pairs", "siamese.predict")),
      Metric("al.run_s", "s", s("al.run")),
      Metric("al.first_batch_s", "s", c("al.first_batch_s")),
      Metric("al.first_wait_s", "s", c("al.first_wait_s")),
      Metric("al.wait_s", "s", c("al.wait_s")),
      Metric("al.iterations", "count", c("al.iterations")),
      Metric("al.labels", "count", c("al.labels")),
      Metric("al.labels_pos", "count", c("al.labels_pos")),
      Metric("jvm.gc_s", "s", med(gcS)),
      Metric("jvm.heap_peak_mb", "MB", heapPeakMb()),
    )
  }
}
